/**
 * @file
 * One HBM pseudo-channel: banks, shared C/A bus, shared data bus,
 * activation power window (tFAW/tRRD) and refresh bookkeeping.
 *
 * The channel is the unit the NeuPIMs scheduler allocates requests to
 * (§5.3): it owns 32 PIM banks and one memory controller. This class
 * holds the *timing state* and exposes issue primitives that compute
 * the earliest legal issue cycle for a command and commit its side
 * effects; policy (queueing, MEM/PIM interleaving, blocked mode) lives
 * in MemoryController.
 */

#ifndef NEUPIMS_DRAM_CHANNEL_H_
#define NEUPIMS_DRAM_CHANNEL_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/types.h"
#include "dram/bank.h"
#include "dram/command.h"
#include "dram/timing.h"

namespace neupims::dram {

class Channel
{
  public:
    Channel(const TimingParams &timing, const Organization &org,
            bool dual_row_buffers);

    const TimingParams &timing() const { return *timing_; }
    const Organization &organization() const { return *org_; }
    int numBanks() const { return banks_.size(); }
    /** The channel's SoA bank state. */
    BankArray &banks() { return banks_; }
    const BankArray &banks() const { return banks_; }

    /** Bank group of a bank id (4 banks per group, Table 2). */
    int bankGroup(BankId b) const { return b / org_->banksPerGroup; }

    // ------------------------------------------------------------------
    // Earliest-issue queries (no side effects).
    // ------------------------------------------------------------------

    // Inline: the controller calls these per command and per candidate,
    // and builds without LTO cannot inline across translation units.

    /** Earliest cycle at or after @p not_before the C/A bus is free. */
    Cycle
    earliestCa(Cycle not_before) const
    {
        return std::max(not_before, caNextFree_);
    }

    /** Earliest ACT cycle >= @p not_before satisfying tFAW and tRRD. */
    Cycle
    actWindowConstraint(BankId bank, Cycle not_before) const
    {
        // Activation times are stored shifted by +1 so that 0 can mean
        // "no previous activation" even when the first ACT lands at
        // cycle 0.
        const auto &t = *timing_;
        Cycle when = not_before;
        // tFAW: at most 4 activations per sliding window. The ring
        // holds the last four ACT cycles; the next ACT must wait until
        // the oldest leaves the window.
        Cycle oldest = actRing_[actRingHead_];
        if (oldest > 0)
            when = std::max(when, (oldest - 1) + t.tFAW);
        // tRRD: ACT-to-ACT spacing, long within a bank group.
        if (lastActAny_ > 0)
            when = std::max(when, (lastActAny_ - 1) + t.tRRD_S);
        Cycle group_last = lastActPerGroup_[bankGroup(bank)];
        if (group_last > 0)
            when = std::max(when, (group_last - 1) + t.tRRD_L);
        return when;
    }

    /**
     * Earliest legal MEM ACTIVATE to @p bank at or after @p not_before,
     * honoring bank state, tRRD, tFAW, C/A bus and any pending refresh
     * window.
     */
    Cycle
    earliestActivate(BankId bank, Cycle not_before) const
    {
        Cycle when = std::max(banks_.earliestActivate(bank, BufferSide::Mem),
                              not_before);
        return earliestCa(actWindowConstraint(bank, when));
    }

    /** Earliest legal MEM column command (RD/WR) to @p bank. */
    Cycle
    earliestColumn(BankId bank, Cycle not_before) const
    {
        return earliestCa(std::max(
            banks_.earliestColumn(bank, BufferSide::Mem), not_before));
    }

    // ------------------------------------------------------------------
    // Issue primitives: compute earliest legal cycle >= not_before,
    // commit all side effects (bank state, buses, tFAW ring, counters)
    // and return the issue cycle. ACT, PRE, RD and WR act on the MEM
    // row buffer; PIM commands have primitives of their own.
    // ------------------------------------------------------------------

    Cycle issueActivate(BankId bank, int row, Cycle not_before);

    /**
     * Issue a column command (RD, or WR if @p write) whose data burst
     * lands tCL (tCWL) later on a free data bus.
     * @return pair{issue cycle, cycle the data burst completes}.
     */
    std::pair<Cycle, Cycle>
    issueColumn(BankId bank, bool write, Cycle not_before)
    {
        const auto &t = *timing_;
        const Cycle lat = write ? t.tCWL : t.tCL;
        Cycle when = earliestColumn(bank, not_before);
        // The burst must find the data bus free; push the issue cycle
        // until it does.
        Cycle burst_start = std::max(when + lat, dataNextFree_);
        when = burst_start - lat;
        if (write)
            banks_.write(bank, BufferSide::Mem, when);
        else
            banks_.read(bank, BufferSide::Mem, when);
        caNextFree_ = when + t.caMemCmd;
        dataNextFree_ = burst_start + t.tBL;
        recordDataBusy(burst_start, 1, t.tBL);
        dataBusBytes_ += org_->burstBytes;
        const CommandType type = write ? CommandType::Wr : CommandType::Rd;
        counts_.record(type);
        if (sink_)
            sink_->push_back(
                {when, type, bank, banks_.openRow(bank, BufferSide::Mem)});
        return {when, burst_start + t.tBL};
    }

    /**
     * A burst train in closed form (DESIGN.md §3.4). After the first
     * burst, each issues step = max(caMemCmd, tBL) cycles after the one
     * before it, with its C/A candidate caMemCmd after that one.
     */
    struct ColumnTrain
    {
        int issued = 0;    ///< bursts issued
        Cycle first = 0;   ///< the first burst's C/A candidate
        Cycle next = 0;    ///< the second burst's, if one issued
        Cycle step = 0;    ///< issue spacing after the first burst
        Cycle dataEnd = 0; ///< the last burst's data end
    };

    /**
     * Up to @p n column commands to @p bank, each issued at its
     * earliest legal cycle, as issueColumn() would issue them one by
     * one, stopping before the first whose C/A candidate reaches
     * @p until. Column commands set no bank-local spacing, so the
     * train's side effects are set once, in closed form.
     */
    ColumnTrain issueColumnTrain(BankId bank, bool write, int n,
                                 Cycle until);

    Cycle issuePrecharge(BankId bank, Cycle not_before);

    /** Issue an all-bank refresh; returns the cycle it completes. */
    Cycle issueRefresh(Cycle not_before);

    /**
     * Activate one PIM row in each of @p nbanks consecutive banks
     * starting at @p first (a grouped PIM_ACTIVATION, §5.2: 4 banks
     * per command due to the tFAW power budget; the group consumes one
     * slot of the activation window). When @p charge_ca is false the
     * activation is driven internally by a composite PIM_GEMV command
     * and occupies no C/A slot. @p row distinguishes successive tiles
     * so each round performs a genuine re-activation.
     * @return the activation cycle (row data ready tRCD later).
     */
    Cycle issuePimActivateGroup(BankId first, int nbanks, int row,
                                Cycle not_before, bool charge_ca);

    /** Earliest-issue query matching issuePimActivateGroup. */
    Cycle earliestPimActivateGroup(BankId first, int nbanks,
                                   Cycle not_before, bool needs_ca) const;

    /**
     * Account a PIM command on the C/A bus (header/gwrite/dot-product/
     * gemv/rd-result/pim-activate encodings are wider than regular
     * commands, §5.3). Returns the issue cycle.
     */
    Cycle issuePimCaCommand(CommandType type, Cycle not_before);

    /** Reserve the data bus for @p bursts back-to-back 64 B beats. */
    std::pair<Cycle, Cycle> reserveDataBus(Cycle not_before, int bursts);

    // ------------------------------------------------------------------
    // Refresh management.
    // ------------------------------------------------------------------

    /** Next cycle at which a refresh becomes due. */
    Cycle nextRefreshDue() const { return nextRefresh_; }

    /**
     * Postpone the due refresh because an announced (PIM_HEADER'd) PIM
     * kernel is in flight; JEDEC allows deferring up to 8 intervals.
     * Returns false if the postpone budget is exhausted.
     */
    bool postponeRefresh();

    // ------------------------------------------------------------------
    // Statistics.
    // ------------------------------------------------------------------

    const CommandCounts &commandCounts() const { return counts_; }
    Bytes dataBusBytes() const { return dataBusBytes_; }
    /** Busy fraction of the data bus over [from, to). */
    double dataBusUtilization(Cycle from, Cycle to) const;
    /** C/A bus busy cycles so far: every counted command holds its
     * class's slot, and slots never overlap. A composite group
     * activation is neither counted nor charged. */
    Cycle
    caBusyCycles() const
    {
        return timing_->caMemCmd * counts_.totalMem() +
               timing_->caPimCmd * counts_.totalPim();
    }

    // ------------------------------------------------------------------
    // A test hook, and periods in closed form (DESIGN.md §3.6).
    // ------------------------------------------------------------------

    /**
     * Log every command the channel issues into @p sink, or nothing
     * when it is null: a hook for tests, costing one branch per issue
     * primitive. A column train logs each burst; an advance over whole
     * periods logs each command of every period it skips.
     */
    void setCommandSink(std::vector<CommandRecord> *sink) { sink_ = sink; }

    /** The channel's logs and counters at one row admission: what an
     * advance over whole periods repeats. */
    struct PeriodMark
    {
        std::size_t spans = 0; ///< data-bus busy spans logged
        Cycle spanEnd = 0;     ///< the last one's end
        CommandCounts counts;
        Bytes dataBytes = 0;
        std::size_t logged = 0; ///< command sink records
    };
    PeriodMark periodMark() const;

    /**
     * Append the timing state that MEM-only decisions read: the buses,
     * the ACT window and tRRD trackers (bank groups from @p origin's on)
     * and the banks (BankArray::normalize), each timestamp relative to
     * @p now. The data bus's cursor stays exact: whether the next busy
     * span continues the last one depends on it.
     */
    void normalize(std::vector<Cycle> &out, Cycle now, BankId origin,
                   std::int64_t lin) const;

    /** Whether the last busy span can grow @p cycles more. */
    bool
    spanRoom(Cycle cycles) const
    {
        return dataBusy_.empty() ||
               UINT32_MAX - dataBusy_.back().length > cycles;
    }

    /**
     * Repeat what the channel did since @p m @p k more times, the j-th
     * copy j * @p dt later and j * @p rows banks and linear row indices
     * on: its busy spans, counters and sink records. Then move its
     * timing state to the end of the last copy.
     */
    void advancePeriods(const PeriodMark &m, Cycle dt, std::int64_t rows,
                        std::uint64_t k);

  private:
    /** Commit an ACT at @p when into the tFAW ring / tRRD tracker. */
    void recordActivate(BankId bank, Cycle when);

    /**
     * Data-bus busy time: bursts of tBL cycles, one every `period`
     * cycles from `start`. Bursts are reserved in order and never
     * overlap, so spans are disjoint and in time order.
     */
    struct BusySpan
    {
        Cycle start;
        std::uint32_t length; ///< to the last burst's end
        std::uint32_t period;

        Cycle end() const { return start + length; }
    };

    /** Log @p bursts busy bursts from @p start, @p period apart; ones
     * that continue the last span at its period extend it. */
    void
    recordDataBusy(Cycle start, Cycle bursts, Cycle period)
    {
        const Cycle end = start + (bursts - 1) * period + timing_->tBL;
        if (!dataBusy_.empty()) {
            BusySpan &last = dataBusy_.back();
            if (last.period == period &&
                last.end() - timing_->tBL + period == start &&
                end - last.start <= UINT32_MAX) {
                last.length = static_cast<std::uint32_t>(end - last.start);
                return;
            }
        }
        NEUPIMS_ASSERT(end - start <= UINT32_MAX);
        dataBusy_.push_back({start, static_cast<std::uint32_t>(end - start),
                             static_cast<std::uint32_t>(period)});
    }

    const TimingParams *timing_;
    const Organization *org_;

    BankArray banks_; ///< SoA per-bank state for the whole channel

    Cycle caNextFree_ = 0;
    Cycle dataNextFree_ = 0;

    /** Ring of the last four ACT issue cycles (tFAW window). */
    std::array<Cycle, 4> actRing_ = {};
    int actRingHead_ = 0;
    Cycle lastActAny_ = 0;      ///< for tRRD_S
    std::vector<Cycle> lastActPerGroup_; ///< for tRRD_L

    Cycle nextRefresh_;
    int postponedRefreshes_ = 0;

    CommandCounts counts_;
    Bytes dataBusBytes_ = 0;
    std::vector<BusySpan> dataBusy_;
    std::vector<BusySpan> spanCopy_; ///< a period's spans, to repeat
    std::vector<CommandRecord> *sink_ = nullptr; ///< test hook
};

} // namespace neupims::dram

#endif // NEUPIMS_DRAM_CHANNEL_H_
