/**
 * @file
 * Arbitration between a DRAM channel's MEM and PIM commands.
 *
 * The MemoryController owns the command state machines (what a MEM row
 * job or PIM kernel *can* issue next and when); its MemArbiter makes
 * the *choice* between the two classes when both have a legal command.
 * Two kinds (see DESIGN.md §11):
 *
 *  - FrFcfs: the paper's arbitration — earliest candidate issues, PIM
 *    wins ties (§5.3). Golden-locked by
 *    tests/core/test_golden_executor.cc.
 *  - Paws: PAWS-style cap-and-switch — the channel alternates between
 *    an explicit PIM mode and MEM mode. A PIM stint ends after
 *    `kPawsPimCap` PIM commands (with MEM work waiting); a MEM stint
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

enum class MemSchedKind { FrFcfs, Paws };

/** Canonical CLI/JSON names: "frfcfs", "paws". */
const char *memSchedKindName(MemSchedKind kind);

/** Parse a canonical name; returns false (and leaves @p out) on junk. */
bool parseMemSchedKind(const std::string &name, MemSchedKind &out);

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
    explicit MemArbiter(MemSchedKind kind) : kind_(kind) {}

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
     * MEM pick adds only its stall behind a ready PIM command, which a
     * burst train (DESIGN.md §3.4) accounts burst by burst.
     */
    void recordIssue(const ArbView &v, bool picked_pim);

    /** Account @p n MEM job completions (Paws stint budgets). */
    void
    noteMemJobsCompleted(std::uint64_t n = 1)
    {
        if (kind_ == MemSchedKind::Paws)
            memJobsThisStint_ += n;
    }

    /** MEM jobs a Paws MEM stint still completes before it can pick
     * PIM while MEM work lasts; 0 in PIM mode and under FrFcfs. */
    std::size_t
    memJobsBeforePim() const
    {
        return kind_ == MemSchedKind::Paws && !pimMode_ &&
                       memJobsThisStint_ < memStintBudget_
                   ? memStintBudget_ - memJobsThisStint_
                   : 0;
    }

    /** The arbitration counters; the row and MEM command fields stay
     * 0 here. */
    const MemSchedStats &stats() const { return stats_; }

  private:
    MemSchedKind kind_;
    MemSchedStats stats_;
    /** Paws: the mode (a queued kernel claims the channel first), the
     * stint's PIM commands and MEM jobs, and its MEM job budget. */
    bool pimMode_ = true;
    int pimCmdsThisStint_ = 0;
    std::size_t memJobsThisStint_ = 0;
    std::size_t memStintBudget_ = 1;
};

} // namespace neupims::dram

#endif // NEUPIMS_DRAM_MEM_SCHED_H_
