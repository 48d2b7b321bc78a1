/**
 * @file
 * Reference event queue: the seed's std::function-over-
 * std::priority_queue implementation, with the same public contract as
 * the production EventQueue (events run in (cycle, sequence) order).
 * It is the oracle of the differential tests in test_event_queue.cc
 * and the baseline of the *Heap microbenchmarks in
 * bench/micro_engine.cc; the simulator itself never uses it.
 */

#ifndef NEUPIMS_TESTS_COMMON_HEAP_EVENT_QUEUE_H_
#define NEUPIMS_TESTS_COMMON_HEAP_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace neupims {

class HeapEventQueue
{
  public:
    using Callback = std::function<void()>;

    HeapEventQueue() = default;

    Cycle now() const { return now_; }

    void
    schedule(Cycle when, Callback cb)
    {
        NEUPIMS_ASSERT(when >= now_, "when=", when, " now=", now_);
        heap_.push(Entry{when, seq_++, std::move(cb)});
    }

    void
    scheduleIn(Cycle delta, Callback cb)
    {
        schedule(now_ + delta, std::move(cb));
    }

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

    Cycle
    nextEventCycle() const
    {
        NEUPIMS_ASSERT(!heap_.empty());
        return heap_.top().when;
    }

    Cycle
    run()
    {
        while (!heap_.empty()) {
            // Copy out the entry: callbacks may schedule new events.
            Entry e = heap_.top();
            heap_.pop();
            NEUPIMS_ASSERT(e.when >= now_, "time went backwards");
            now_ = e.when;
            e.cb();
            ++executed_;
        }
        return now_;
    }

    std::uint64_t executedEvents() const { return executed_; }

  private:
    struct Entry
    {
        Cycle when;
        std::uint64_t seq;
        Callback cb;

        bool
        operator>(const Entry &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
    Cycle now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace neupims

#endif // NEUPIMS_TESTS_COMMON_HEAP_EVENT_QUEUE_H_
