/**
 * @file
 * Per-bank DRAM state with dual row buffers (paper §5.1, Figure 8).
 *
 * A NeuPIMs bank carries two independent row buffers: the MEM row
 * buffer serving regular read/write accesses and the PIM row buffer
 * feeding the in-bank GEMV datapath. A baseline (single row buffer)
 * bank has one buffer, which both sides name: a PIM activation evicts
 * the open MEM row and vice versa — which is precisely the
 * microarchitectural conflict that forces existing PIMs into "blocked"
 * operation.
 *
 * Timing is tracked as next-allowed timestamps per command class (the
 * same constraint algebra DRAMsim3 enforces); banks never tick.
 *
 * State lives in BankArray as structure-of-arrays: one dense vector
 * per timestamp class and buffer across all of a channel's banks, so
 * the controller's whole-channel scans (refresh readiness, grouped PIM
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
        : timing_(&t), buffer_{0, dual_row_buffers ? 1 : 0},
          nextActAny_(static_cast<std::size_t>(nbanks), 0)
    {
        // Only a buffer some side names holds banks: a single-buffer
        // bank's second stays empty.
        for (int k : buffer_) {
            Buffer &u = buffers_[k];
            u.openRow.assign(nextActAny_.size(), -1);
            u.nextAct = u.nextColumn = u.nextPre = nextActAny_;
        }
    }

    int size() const { return static_cast<int>(nextActAny_.size()); }

    /** Currently open row on a side, or -1 if the buffer is closed. */
    int openRow(BankId b, BufferSide s) const { return at(s).openRow[idx(b)]; }

    /** Earliest cycle an ACTIVATE for side @p s may issue (bank-local). */
    Cycle
    earliestActivate(BankId b, BufferSide s) const
    {
        // Row activations on either buffer contend for the shared cell
        // array access circuitry: tRC is enforced across both sides.
        // Precharge-readiness is tracked per buffer.
        return std::max(nextActAny_[idx(b)], at(s).nextAct[idx(b)]);
    }

    /** Earliest cycle a column command (RD/WR/dot-product) may issue. */
    Cycle
    earliestColumn(BankId b, BufferSide s) const
    {
        return at(s).nextColumn[idx(b)];
    }

    /** Earliest cycle a PRECHARGE for side @p s may issue. */
    Cycle
    earliestPrecharge(BankId b, BufferSide s) const
    {
        return at(s).nextPre[idx(b)];
    }

    /**
     * Apply an ACTIVATE issued at @p when opening @p row on side @p s.
     * @pre when >= earliestActivate(b, s)
     */
    void
    activate(BankId b, BufferSide s, int row, Cycle when)
    {
        const auto &t = *timing_;
        const std::size_t i = idx(b);
        Buffer &u = at(s);
        u.openRow[i] = row;
        u.nextColumn[i] = when + t.tRCD;
        u.nextPre[i] = when + t.tRAS;
        u.nextAct[i] = nextActAny_[i] = when + t.tRC();
    }

    /** Apply a read issued at @p when. */
    void
    read(BankId b, BufferSide s, Cycle when)
    {
        Cycle &pre = at(s).nextPre[idx(b)];
        pre = std::max(pre, when + timing_->tRTP);
    }

    /** Apply a write issued at @p when. */
    void
    write(BankId b, BufferSide s, Cycle when)
    {
        const auto &t = *timing_;
        Cycle &pre = at(s).nextPre[idx(b)];
        pre = std::max(pre, when + t.tCWL + t.tBL + t.tWR);
    }

    /** Apply a PRECHARGE issued at @p when closing side @p s's buffer. */
    void
    precharge(BankId b, BufferSide s, Cycle when)
    {
        const std::size_t i = idx(b);
        Buffer &u = at(s);
        u.openRow[i] = -1;
        u.nextAct[i] = std::max(u.nextAct[i], when + timing_->tRP);
    }

    /** Apply an all-bank REFRESH issued at @p when. */
    void
    refreshAll(Cycle when)
    {
        const Cycle done = when + timing_->tRFC;
        // Dense column-wise maxes: this is the SoA payoff — the JEDEC
        // refresh and the all-bank readiness scan in issueRefresh walk
        // flat arrays instead of striding across bank objects.
        for (Cycle &c : nextActAny_)
            c = std::max(c, done);
        for (Buffer &u : buffers_) {
            std::fill(u.openRow.begin(), u.openRow.end(), -1);
            for (Cycle &c : u.nextAct)
                c = std::max(c, done);
            for (Cycle &c : u.nextColumn)
                c = std::max(c, done);
        }
    }

    /** Latest earliestPrecharge over both buffers of all banks. */
    Cycle
    maxEarliestPrecharge() const
    {
        Cycle when = 0;
        for (const Buffer &u : buffers_)
            for (Cycle c : u.nextPre)
                when = std::max(when, c);
        return when;
    }

    /**
     * Append what a MEM-only stretch reads or writes, bank by bank from
     * @p origin on (DESIGN.md §3.6): each timestamp relative to @p now,
     * 0 once it no longer binds, and each open MEM row as its linear
     * index row * banks + bank relative to @p lin.
     */
    void
    normalize(std::vector<Cycle> &out, Cycle now, BankId origin,
              std::int64_t lin) const
    {
        const int n = size();
        const Buffer &m = at(BufferSide::Mem);
        auto rel = [now](Cycle c) { return c > now ? c - now : 0; };
        for (int k = 0; k < n; ++k) {
            const std::size_t i = idx((origin + k) % n);
            const int row = m.openRow[i];
            // A closed row maps where no linear index difference can.
            out.push_back(row < 0 ? Cycle{1} << 63
                                  : static_cast<Cycle>(
                                        std::int64_t{row} * n +
                                        static_cast<std::int64_t>(i) - lin));
            out.push_back(rel(nextActAny_[i]));
            out.push_back(rel(m.nextAct[i]));
            out.push_back(rel(m.nextColumn[i]));
            out.push_back(rel(m.nextPre[i]));
        }
    }

    /**
     * Move the state @p periods of a MEM-only stretch ahead: each
     * timestamp @p dt later, each bank's state @p rows banks up and
     * each open row @p rows linear indices on (DESIGN.md §3.6). Dual
     * buffers keep their PIM buffer, which MEM commands never touch.
     */
    void
    advance(Cycle dt, std::int64_t rows)
    {
        const int n = size();
        const auto r = static_cast<std::ptrdiff_t>(rows % n);
        auto move = [&](std::vector<Cycle> &v) {
            std::rotate(v.begin(), v.end() - r, v.end());
            for (auto &c : v)
                c += dt;
        };
        Buffer &m = at(BufferSide::Mem);
        // Bank k now holds bank k - r's row, rows linear indices on: a
        // bank that wrapped past the last one sits one row further.
        std::rotate(m.openRow.begin(), m.openRow.end() - r, m.openRow.end());
        for (int k = 0; k < n; ++k) {
            if (m.openRow[idx(k)] >= 0)
                m.openRow[idx(k)] += static_cast<int>(rows / n) + (k < r);
        }
        move(nextActAny_);
        move(m.nextAct);
        move(m.nextColumn);
        move(m.nextPre);
    }

  private:
    /** One row buffer's state across the banks. */
    struct Buffer
    {
        std::vector<int> openRow;
        std::vector<Cycle> nextAct;
        std::vector<Cycle> nextColumn;
        std::vector<Cycle> nextPre;
    };

    static std::size_t idx(BankId b) { return static_cast<std::size_t>(b); }

    /** The buffer side @p s names. */
    Buffer &at(BufferSide s) { return buffers_[buffer_[static_cast<int>(s)]]; }
    const Buffer &
    at(BufferSide s) const
    {
        return buffers_[buffer_[static_cast<int>(s)]];
    }

    const TimingParams *timing_;
    /** The buffer each side names: its own with dual row buffers, the
     * MEM buffer for both without. */
    int buffer_[2];
    std::vector<Cycle> nextActAny_; ///< tRC across both buffers
    Buffer buffers_[2];
};

} // namespace neupims::dram

#endif // NEUPIMS_DRAM_BANK_H_
