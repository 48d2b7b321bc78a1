/**
 * @file
 * Arbitration between a DRAM channel's MEM and PIM commands.
 *
 * The MemoryController owns the command state machines (what a MEM row
 * job or PIM kernel *can* issue next and when); its MemArbiter makes
 * the *choice* between the two classes when both have a legal command.
 * Three kinds reproduce the policy space of the PIM-scheduling
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
 *    `pawsPimCap` PIM commands (with MEM work waiting); a MEM stint
 *    ends once it has completed the MEM backlog captured at switch
 *    time, so neither class can starve.
 *
 * The arbiter counts what only arbitration sees: PIM commands,
 * MEM<->PIM mode switches, and the two contention integrals —
 * pimStallCycles (PIM command ready but a later MEM command was
 * chosen) and pimWasteCycles (bus held for a later PIM command while
 * MEM work was ready). Under FrFcfs both integrals are identically
 * zero, which the property tests pin. The row outcomes and MEM command
 * count come from the channel's commands
 * (MemoryController::memSchedStats).
 */

#ifndef NEUPIMS_DRAM_MEM_SCHED_H_
#define NEUPIMS_DRAM_MEM_SCHED_H_

#include <cstddef>
#include <cstdint>
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
};

/** A channel's scheduling statistics. */
struct MemSchedStats
{
    std::uint64_t rowHits = 0;      ///< MEM rows that found their row open
    std::uint64_t rowMisses = 0;    ///< bank closed: ACT needed
    std::uint64_t rowConflicts = 0; ///< other row open: PRE + ACT
    std::uint64_t memCommands = 0;  ///< MEM ACT, PRE, RD and WR issued
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
};

/** Snapshot of one arbitration decision (both classes have a legal
 * command; cycles are the earliest each could issue). */
struct ArbView
{
    Cycle cm = kCycleMax;  ///< earliest MEM candidate
    Cycle cp = kCycleMax;  ///< earliest PIM candidate
    bool memIsRowHit = false; ///< chosen MEM candidate hits its open row
    std::size_t memPending = 0; ///< queued + in-flight MEM jobs
};

/**
 * The choice between MEM and PIM commands, and its counters: one value
 * per controller that switches on its kind. The schedulers it follows
 * are classes because they own request queues; the controller owns
 * these.
 */
class MemArbiter
{
  public:
    explicit MemArbiter(const MemSchedConfig &cfg) : cfg_(cfg) {}

    /**
     * Decide the class of the next issued command. Called only when
     * both classes have a candidate; the controller auto-picks the
     * only live class otherwise (so an arbiter can bias, but never
     * block the channel's only available work — starvation-freedom by
     * construction at the "one class left" boundary).
     */
    bool choosePim(const ArbView &v);

    /**
     * Account an issued command (both arbitrated and auto-picked). A
     * MEM pick reads no candidate and its account is idempotent, so
     * the rest of a burst train (DESIGN.md §3.4) needs no further call.
     */
    void recordIssue(const ArbView &v, bool picked_pim);

    /** Account @p n MEM job completions (Paws stint budgets). */
    void
    noteMemJobsCompleted(std::uint64_t n = 1)
    {
        if (cfg_.kind == MemSchedKind::Paws)
            memJobsThisStint_ += n;
    }

    /** The arbitration counters; the row and MEM command fields stay
     * 0 here. */
    const MemSchedStats &stats() const { return stats_; }

  private:
    MemSchedConfig cfg_;
    MemSchedStats stats_;
    /** PimFrFcfs: consecutive decisions a ready MEM command waited. */
    int deferred_ = 0;
    /** Paws: the mode (a queued kernel claims the channel first), the
     * stint's PIM commands and MEM jobs, and its MEM job budget. */
    bool pimMode_ = true;
    int pimCmdsThisStint_ = 0;
    std::size_t memJobsThisStint_ = 0;
    std::size_t memStintBudget_ = 1;
};

} // namespace neupims::dram

#endif // NEUPIMS_DRAM_MEM_SCHED_H_
