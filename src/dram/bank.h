/**
 * @file
 * Per-bank DRAM state with dual row buffers (paper §5.1, Figure 8).
 *
 * A NeuPIMs bank carries two independent row buffers: the MEM row
 * buffer serving regular read/write accesses and the PIM row buffer
 * feeding the in-bank GEMV datapath. In baseline (single row buffer)
 * mode the two aliases share one buffer, so a PIM activation evicts the
 * open MEM row and vice versa — which is precisely the
 * microarchitectural conflict that forces existing PIMs into "blocked"
 * operation.
 *
 * Timing is tracked as next-allowed timestamps per command class (the
 * same constraint algebra DRAMsim3 enforces); banks never tick.
 *
 * State lives in BankArray as structure-of-arrays: one dense vector
 * per timestamp class across all of a channel's banks, so the
 * controller's whole-channel scans (refresh readiness, grouped PIM
 * activation windows, candidate selection) walk contiguous memory
 * instead of striding across per-bank objects. Every method takes the
 * bank it reads or commits; a one-bank array is a single bank.
 */

#ifndef NEUPIMS_DRAM_BANK_H_
#define NEUPIMS_DRAM_BANK_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "dram/timing.h"

namespace neupims::dram {

/** Which of the two row buffers a command targets. */
enum class BufferSide { Mem, Pim };

/** SoA timing/row state for all banks of one channel. */
class BankArray
{
  public:
    BankArray(const TimingParams &t, bool dual_row_buffers, int nbanks)
        : timing_(&t), dualRowBuffers_(dual_row_buffers),
          memOpenRow_(static_cast<std::size_t>(nbanks), -1),
          pimOpenRow_(static_cast<std::size_t>(nbanks), -1),
          nextActAny_(static_cast<std::size_t>(nbanks), 0),
          memNextAct_(static_cast<std::size_t>(nbanks), 0),
          pimNextAct_(static_cast<std::size_t>(nbanks), 0),
          memNextColumn_(static_cast<std::size_t>(nbanks), 0),
          pimNextColumn_(static_cast<std::size_t>(nbanks), 0),
          memNextPre_(static_cast<std::size_t>(nbanks), 0),
          pimNextPre_(static_cast<std::size_t>(nbanks), 0)
    {}

    bool dualRowBuffers() const { return dualRowBuffers_; }
    int size() const { return static_cast<int>(memOpenRow_.size()); }

    /** Currently open row on a side, or -1 if the buffer is closed. */
    int
    openRow(BankId b, BufferSide side) const
    {
        return side == BufferSide::Mem ? memOpenRow_[idx(b)]
                                       : pimOpenRow_[idx(b)];
    }

    /** Earliest cycle an ACTIVATE for @p side may issue (bank-local). */
    Cycle
    earliestActivate(BankId b, BufferSide side) const
    {
        // Row activations on either buffer contend for the shared cell
        // array access circuitry: tRC is enforced across both sides.
        // Precharge-readiness is tracked per side.
        return std::max(nextActAny_[idx(b)],
                        side == BufferSide::Mem ? memNextAct_[idx(b)]
                                                : pimNextAct_[idx(b)]);
    }

    /** Earliest cycle a column command (RD/WR/dot-product) may issue. */
    Cycle
    earliestColumn(BankId b, BufferSide side) const
    {
        return side == BufferSide::Mem ? memNextColumn_[idx(b)]
                                       : pimNextColumn_[idx(b)];
    }

    /** Earliest cycle a PRECHARGE for @p side may issue. */
    Cycle
    earliestPrecharge(BankId b, BufferSide side) const
    {
        return side == BufferSide::Mem ? memNextPre_[idx(b)]
                                       : pimNextPre_[idx(b)];
    }

    /**
     * Apply an ACTIVATE issued at @p when opening @p row on @p side.
     * @pre when >= earliestActivate(b, side)
     */
    void
    activate(BankId b, BufferSide side, int row, Cycle when)
    {
        const auto &t = *timing_;
        std::size_t i = idx(b);
        if (!dualRowBuffers_) {
            // Aliased buffer: both sides observe the same open row and
            // the same column/precharge readiness.
            memOpenRow_[i] = pimOpenRow_[i] = row;
            memNextColumn_[i] = pimNextColumn_[i] = when + t.tRCD;
            memNextPre_[i] = pimNextPre_[i] = when + t.tRAS;
        } else if (side == BufferSide::Mem) {
            memOpenRow_[i] = row;
            memNextColumn_[i] = when + t.tRCD;
            memNextPre_[i] = when + t.tRAS;
        } else {
            pimOpenRow_[i] = row;
            pimNextColumn_[i] = when + t.tRCD;
            pimNextPre_[i] = when + t.tRAS;
        }
        nextActAny_[i] = when + t.tRC();
        sideNextAct(i, side) = when + t.tRC();
    }

    /** Apply a read issued at @p when. */
    void
    read(BankId b, BufferSide side, Cycle when)
    {
        const auto &t = *timing_;
        std::size_t i = idx(b);
        Cycle pre_ready = when + t.tRTP;
        if (side == BufferSide::Mem || !dualRowBuffers_)
            memNextPre_[i] = std::max(memNextPre_[i], pre_ready);
        if (side == BufferSide::Pim || !dualRowBuffers_)
            pimNextPre_[i] = std::max(pimNextPre_[i], pre_ready);
    }

    /** Apply a write issued at @p when. */
    void
    write(BankId b, BufferSide side, Cycle when)
    {
        const auto &t = *timing_;
        std::size_t i = idx(b);
        Cycle pre_ready = when + t.tCWL + t.tBL + t.tWR;
        if (side == BufferSide::Mem || !dualRowBuffers_)
            memNextPre_[i] = std::max(memNextPre_[i], pre_ready);
        if (side == BufferSide::Pim || !dualRowBuffers_)
            pimNextPre_[i] = std::max(pimNextPre_[i], pre_ready);
    }

    /** Apply a PRECHARGE issued at @p when closing @p side's buffer. */
    void
    precharge(BankId b, BufferSide side, Cycle when)
    {
        const auto &t = *timing_;
        std::size_t i = idx(b);
        if (side == BufferSide::Mem || !dualRowBuffers_) {
            memOpenRow_[i] = -1;
            memNextAct_[i] = std::max(memNextAct_[i], when + t.tRP);
        }
        if (side == BufferSide::Pim || !dualRowBuffers_) {
            pimOpenRow_[i] = -1;
            pimNextAct_[i] = std::max(pimNextAct_[i], when + t.tRP);
        }
    }

    /** Apply an all-bank REFRESH issued at @p when. */
    void
    refreshAll(Cycle when)
    {
        const auto &t = *timing_;
        Cycle done = when + t.tRFC;
        std::size_t n = memOpenRow_.size();
        // Dense column-wise maxes: this is the SoA payoff — the JEDEC
        // refresh and the all-bank readiness scan in issueRefresh walk
        // nine flat arrays instead of striding across bank objects.
        for (std::size_t i = 0; i < n; ++i)
            memOpenRow_[i] = -1;
        for (std::size_t i = 0; i < n; ++i)
            pimOpenRow_[i] = -1;
        for (std::size_t i = 0; i < n; ++i)
            nextActAny_[i] = std::max(nextActAny_[i], done);
        for (std::size_t i = 0; i < n; ++i)
            memNextAct_[i] = std::max(memNextAct_[i], done);
        for (std::size_t i = 0; i < n; ++i)
            pimNextAct_[i] = std::max(pimNextAct_[i], done);
        for (std::size_t i = 0; i < n; ++i)
            memNextColumn_[i] = std::max(memNextColumn_[i], done);
        for (std::size_t i = 0; i < n; ++i)
            pimNextColumn_[i] = std::max(pimNextColumn_[i], done);
    }

    /** Latest earliestPrecharge over both sides of all banks. */
    Cycle
    maxEarliestPrecharge() const
    {
        Cycle when = 0;
        for (Cycle c : memNextPre_)
            when = std::max(when, c);
        for (Cycle c : pimNextPre_)
            when = std::max(when, c);
        return when;
    }

    /**
     * Append what a MEM-only stretch reads or writes, bank by bank from
     * @p origin on (DESIGN.md §3.6): each timestamp relative to @p now,
     * 0 once it no longer binds, and each open MEM row as its linear
     * index row * banks + bank relative to @p lin. A single-buffer bank
     * adds its PIM activate readiness, which a MEM precharge moves; its
     * other PIM-side state equals the MEM side's.
     */
    void
    normalize(std::vector<Cycle> &out, Cycle now, BankId origin,
              std::int64_t lin) const
    {
        const int n = size();
        auto rel = [now](Cycle c) { return c > now ? c - now : 0; };
        for (int k = 0; k < n; ++k) {
            const std::size_t i = idx((origin + k) % n);
            const int row = memOpenRow_[i];
            // A closed row maps where no linear index difference can.
            out.push_back(row < 0 ? Cycle{1} << 63
                                  : static_cast<Cycle>(
                                        std::int64_t{row} * n +
                                        static_cast<std::int64_t>(i) - lin));
            out.push_back(rel(nextActAny_[i]));
            out.push_back(rel(memNextAct_[i]));
            out.push_back(rel(memNextColumn_[i]));
            out.push_back(rel(memNextPre_[i]));
            if (!dualRowBuffers_)
                out.push_back(rel(pimNextAct_[i]));
        }
    }

    /**
     * Move the state @p periods of a MEM-only stretch ahead: each
     * timestamp @p dt later, each bank's state @p rows banks up and
     * each open row @p rows linear indices on (DESIGN.md §3.6). Dual
     * buffers keep their PIM side, which MEM commands never touch.
     */
    void
    advance(Cycle dt, std::int64_t rows)
    {
        const int n = size();
        const auto r = static_cast<std::ptrdiff_t>(rows % n);
        auto move = [&](auto &v, bool timestamps) {
            std::rotate(v.begin(), v.end() - r, v.end());
            if (timestamps)
                for (auto &c : v)
                    c += dt;
        };
        // Bank k now holds bank k - r's row, rows linear indices on: a
        // bank that wrapped past the last one sits one row further.
        auto moveRows = [&](std::vector<int> &v) {
            move(v, false);
            for (int k = 0; k < n; ++k) {
                if (v[idx(k)] >= 0)
                    v[idx(k)] += static_cast<int>(rows / n) + (k < r);
            }
        };
        moveRows(memOpenRow_);
        move(nextActAny_, true);
        move(memNextAct_, true);
        move(memNextColumn_, true);
        move(memNextPre_, true);
        if (!dualRowBuffers_) {
            moveRows(pimOpenRow_);
            move(pimNextAct_, true);
            move(pimNextColumn_, true);
            move(pimNextPre_, true);
        }
    }

  private:
    static std::size_t idx(BankId b) { return static_cast<std::size_t>(b); }

    Cycle &
    sideNextAct(std::size_t i, BufferSide side)
    {
        return side == BufferSide::Mem ? memNextAct_[i] : pimNextAct_[i];
    }

    const TimingParams *timing_;
    bool dualRowBuffers_;

    std::vector<int> memOpenRow_;
    std::vector<int> pimOpenRow_;

    std::vector<Cycle> nextActAny_; ///< tRC across both buffers
    std::vector<Cycle> memNextAct_;
    std::vector<Cycle> pimNextAct_;
    std::vector<Cycle> memNextColumn_;
    std::vector<Cycle> pimNextColumn_;
    std::vector<Cycle> memNextPre_;
    std::vector<Cycle> pimNextPre_;
};

} // namespace neupims::dram

#endif // NEUPIMS_DRAM_BANK_H_
