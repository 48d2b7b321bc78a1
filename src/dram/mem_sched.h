/**
 * @file
 * Pluggable DRAM arbitration policies for the per-channel controller.
 *
 * The MemoryController owns the command state machines (what a MEM row
 * job or PIM kernel *can* issue next and when); a MemSchedPolicy owns
 * the *choice* between the two classes when both have a legal command.
 * Three built-ins reproduce the policy space of the PIM-scheduling
 * literature (see DESIGN.md §11):
 *
 *  - FrFcfs: the original arbitration, bit-identical to the historical
 *    controller — earliest candidate issues, PIM wins ties (§5.3).
 *    Golden-locked by tests/core/test_golden_executor.cc.
 *  - PimFrFcfs: PIM commands drain at priority even when a MEM command
 *    is ready earlier, except that (a) MEM row *hits* always pass (they
 *    disturb no row buffer — the row-buffer-friendly rule of the
 *    Sacusa pim_frfcfs scheduler) and (b) a starvation cap bounds the
 *    number of consecutively deferred MEM decisions.
 *  - Paws: PAWS-style cap-and-switch — the channel alternates between
 *    an explicit PIM mode and MEM mode. A PIM stint ends after
 *    `pawsPimCap` PIM commands (with MEM work waiting); the MEM stint
 *    budget is the backlog captured at switch time, extensible while
 *    the head MEM job is a hot-bin row hit but hard-capped at twice
 *    the budget so neither class can starve.
 *
 * Every policy also carries the channel's scheduling statistics: row
 * hit/miss/conflict classification of MEM jobs, per-class command
 * counts, MEM<->PIM mode switches, and the two contention integrals —
 * pimStallCycles (PIM command ready but a later MEM command was chosen)
 * and pimWasteCycles (bus held for a later PIM command while MEM work
 * was ready). Under FrFcfs both integrals are identically zero, which
 * the property tests pin.
 */

#ifndef NEUPIMS_DRAM_MEM_SCHED_H_
#define NEUPIMS_DRAM_MEM_SCHED_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "common/types.h"

namespace neupims::dram {

enum class MemSchedKind { FrFcfs, PimFrFcfs, Paws };

/** Canonical CLI/JSON names: "frfcfs", "pim-frfcfs", "paws". */
const char *memSchedKindName(MemSchedKind kind);

/** Parse a canonical name; returns false (and leaves @p out) on junk. */
bool parseMemSchedKind(const std::string &name, MemSchedKind &out);

/** Tuning knobs, embedded in ControllerConfig. */
struct MemSchedConfig
{
    MemSchedKind kind = MemSchedKind::FrFcfs;
    /**
     * PimFrFcfs: maximum consecutive decisions in which a ready MEM
     * command is deferred behind a later PIM command before one MEM
     * command is force-issued.
     */
    int pimStarveCap = 8;
    /**
     * Paws: PIM commands per PIM-mode stint before the channel
     * switches to MEM mode (when MEM work is waiting).
     */
    int pawsPimCap = 48;
    /** Paws: bin access count at which a row counts as "hot". */
    int pawsBinHot = 2;
};

/** How a MEM job found its bank's MEM-side row buffer on first issue. */
enum class RowOutcome { Hit, Miss, Conflict };

/** Scheduling statistics, owned by the policy instance. */
struct MemSchedStats
{
    std::uint64_t rowHits = 0;      ///< MEM job found its row open
    std::uint64_t rowMisses = 0;    ///< bank closed: ACT needed
    std::uint64_t rowConflicts = 0; ///< other row open: PRE + ACT
    std::uint64_t memCommands = 0;  ///< MEM sub-commands issued
    std::uint64_t pimCommands = 0;  ///< PIM sub-commands issued
    std::uint64_t modeSwitches = 0; ///< Paws MEM<->PIM transitions
    /** Sum over decisions of (mem issue - pim candidate) when a ready
     * PIM command was deferred behind a later MEM command. */
    Cycle pimStallCycles = 0;
    /** Sum over decisions of (pim issue - mem candidate) when the bus
     * waited for a PIM command while MEM work was ready earlier. */
    Cycle pimWasteCycles = 0;

    MemSchedStats &
    operator+=(const MemSchedStats &o)
    {
        rowHits += o.rowHits;
        rowMisses += o.rowMisses;
        rowConflicts += o.rowConflicts;
        memCommands += o.memCommands;
        pimCommands += o.pimCommands;
        modeSwitches += o.modeSwitches;
        pimStallCycles += o.pimStallCycles;
        pimWasteCycles += o.pimWasteCycles;
        return *this;
    }

    std::uint64_t
    classifiedMemJobs() const
    {
        return rowHits + rowMisses + rowConflicts;
    }
    double
    rowHitRate() const
    {
        std::uint64_t n = classifiedMemJobs();
        return n ? static_cast<double>(rowHits) / static_cast<double>(n)
                 : 0.0;
    }
};

/** Snapshot of one arbitration decision (both classes have a legal
 * command; cycles are the earliest each could issue). */
struct ArbView
{
    Cycle cm = kCycleMax;  ///< earliest MEM candidate
    Cycle cp = kCycleMax;  ///< earliest PIM candidate
    Cycle now = 0;
    bool memIsRowHit = false; ///< chosen MEM candidate hits its open row
    BankId memBank = 0;       ///< bank of the chosen MEM candidate
    int memRow = 0;           ///< row of the chosen MEM candidate
    std::size_t memPending = 0; ///< queued + in-flight MEM jobs
    std::size_t pimPending = 0; ///< queued + active PIM kernels
};

class MemSchedPolicy
{
  public:
    virtual ~MemSchedPolicy() = default;

    virtual MemSchedKind kind() const = 0;
    const char *name() const { return memSchedKindName(kind()); }

    /**
     * Decide the class of the next issued command. Called only when
     * both classes have a candidate; the controller auto-picks the
     * only live class otherwise (so a policy can bias, but never block
     * the channel's only available work — starvation-freedom by
     * construction at the "one class left" boundary).
     */
    virtual bool choosePim(const ArbView &v) = 0;

    /** Account an issued command (both arbitrated and auto-picked). */
    void recordIssue(const ArbView &v, bool picked_pim);

    /**
     * Account @p n MEM commands issued with no PIM work (a burst train,
     * DESIGN.md §3.4): what n recordIssue calls of a lone MEM class do,
     * since onIssue() of a MEM pick reads no candidate and is
     * idempotent.
     */
    void
    recordLoneMem(std::uint64_t n)
    {
        stats_.memCommands += n;
        onIssue(ArbView{}, false);
    }

    /** Account the first-issue row-buffer outcome of a MEM job. */
    void noteRowOutcome(BankId bank, int row, RowOutcome outcome);

    /** Account @p n MEM job completions (Paws stint budgets). */
    void
    noteMemJobsCompleted(std::uint64_t n = 1)
    {
        onMemJobsCompleted(n);
    }

    const MemSchedStats &stats() const { return stats_; }

    /** Recent access count of @p row's bin on @p bank (row-locality
     * estimate; bins halve on every Paws mode switch). */
    std::uint32_t
    binCount(BankId bank, int row) const
    {
        return bins_[static_cast<std::size_t>(bank) % kMaxBanks]
                    [static_cast<std::size_t>(row) % kBinsPerBank];
    }

  protected:
    virtual void onIssue(const ArbView &v, bool picked_pim)
    {
        (void)v;
        (void)picked_pim;
    }
    virtual void onMemJobsCompleted(std::uint64_t n) { (void)n; }

    void decayBins();

    MemSchedStats stats_;

  private:
    static constexpr std::size_t kMaxBanks = 64;
    static constexpr std::size_t kBinsPerBank = 16;
    std::array<std::array<std::uint32_t, kBinsPerBank>, kMaxBanks>
        bins_ = {};
};

std::unique_ptr<MemSchedPolicy> makeMemSchedPolicy(const MemSchedConfig &cfg);

} // namespace neupims::dram

#endif // NEUPIMS_DRAM_MEM_SCHED_H_
