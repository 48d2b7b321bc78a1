/**
 * @file
 * Lightweight statistics: accumulating scalars, and busy-interval
 * tracking (UtilizationTracker), which underlies every utilization
 * number the paper reports (Table 4, Figure 6).
 */

#ifndef NEUPIMS_COMMON_STATS_H_
#define NEUPIMS_COMMON_STATS_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace neupims {

/** A named accumulating scalar statistic. */
class Scalar
{
  public:
    void add(double v) { value_ += v; ++samples_; }
    void set(double v) { value_ = v; }
    double value() const { return value_; }
    std::uint64_t samples() const { return samples_; }
    void reset() { value_ = 0.0; samples_ = 0; }

  private:
    double value_ = 0.0;
    std::uint64_t samples_ = 0;
};

/**
 * Tracks the union of busy intervals of a resource over simulated time,
 * merging overlaps, so utilization = busy / elapsed is exact even when
 * concurrent jobs overlap on the same resource pool.
 */
class UtilizationTracker
{
  public:
    /**
     * Record that the resource was busy during [start, end).
     *
     * Resource timelines reserve slots in non-decreasing start order,
     * so adjacent/overlapping intervals coalesce into the tail in
     * O(1) — a stream of millions of back-to-back bus bursts stays a
     * handful of intervals. Out-of-order inserts still work (they
     * fall back to a deferred sort+merge).
     */
    void
    addBusy(Cycle start, Cycle end)
    {
        if (end <= start)
            return;
        if (!intervals_.empty() && merged_ &&
            start >= intervals_.back().first) {
            if (start <= intervals_.back().second) {
                intervals_.back().second =
                    std::max(intervals_.back().second, end);
                return;
            }
            intervals_.emplace_back(start, end);
            return;
        }
        intervals_.emplace_back(start, end);
        merged_ = intervals_.size() == 1;
    }

    /** Total busy cycles in [0, horizon), overlaps merged. */
    Cycle
    busyCycles(Cycle horizon = kCycleMax)
    {
        mergeIntervals();
        Cycle busy = 0;
        for (const auto &[s, e] : intervals_) {
            if (s >= horizon)
                break;
            busy += std::min(e, horizon) - s;
        }
        return busy;
    }

    /** Busy fraction of [windowStart, windowEnd). */
    double
    utilization(Cycle windowStart, Cycle windowEnd)
    {
        NEUPIMS_ASSERT(windowEnd > windowStart);
        mergeIntervals();
        Cycle busy = 0;
        for (const auto &[s, e] : intervals_) {
            Cycle lo = std::max(s, windowStart);
            Cycle hi = std::min(e, windowEnd);
            if (hi > lo)
                busy += hi - lo;
        }
        return static_cast<double>(busy) /
               static_cast<double>(windowEnd - windowStart);
    }

    void
    reset()
    {
        intervals_.clear();
        merged_ = true;
    }

  private:
    void
    mergeIntervals()
    {
        if (merged_)
            return;
        std::sort(intervals_.begin(), intervals_.end());
        std::vector<std::pair<Cycle, Cycle>> out;
        for (const auto &iv : intervals_) {
            if (!out.empty() && iv.first <= out.back().second)
                out.back().second = std::max(out.back().second, iv.second);
            else
                out.push_back(iv);
        }
        intervals_ = std::move(out);
        merged_ = true;
    }

    std::vector<std::pair<Cycle, Cycle>> intervals_;
    bool merged_ = true;
};

} // namespace neupims

#endif // NEUPIMS_COMMON_STATS_H_
