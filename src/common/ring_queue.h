/**
 * @file
 * Vector-backed FIFO with up-front reservation.
 *
 * std::deque allocates its map and first chunk lazily and cannot
 * reserve, so queue-heavy components (the per-channel memory
 * controllers' stream and PIM kernel queues, refilled every layer)
 * pay repeated growth on the hot path. RingQueue keeps elements in a
 * single contiguous vector with a head cursor; pop_front is O(1) and
 * the dead prefix is recycled wholesale when the queue drains (or
 * compacted when it dominates the buffer), so push/pop are amortized
 * allocation-free after reserve().
 */

#ifndef NEUPIMS_COMMON_RING_QUEUE_H_
#define NEUPIMS_COMMON_RING_QUEUE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/log.h"

namespace neupims {

template <typename T>
class RingQueue
{
  public:
    RingQueue() = default;

    void reserve(std::size_t n) { buf_.reserve(n); }

    bool empty() const { return head_ == buf_.size(); }
    std::size_t size() const { return buf_.size() - head_; }

    T &
    front()
    {
        NEUPIMS_ASSERT(!empty());
        return buf_[head_];
    }

    const T &
    front() const
    {
        NEUPIMS_ASSERT(!empty());
        return buf_[head_];
    }

    void
    push_back(T value)
    {
        buf_.push_back(std::move(value));
    }

    void
    pop_front()
    {
        NEUPIMS_ASSERT(!empty());
        ++head_;
        if (head_ == buf_.size()) {
            // Drained: recycle the whole buffer in O(1).
            buf_.clear();
            head_ = 0;
        } else if (head_ >= kCompactThreshold && head_ * 2 >= buf_.size()) {
            // The dead prefix dominates: slide the live elements down
            // so a never-empty queue cannot grow without bound.
            buf_.erase(buf_.begin(),
                       buf_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
    }

  private:
    static constexpr std::size_t kCompactThreshold = 64;

    std::vector<T> buf_;
    std::size_t head_ = 0;
};

} // namespace neupims

#endif // NEUPIMS_COMMON_RING_QUEUE_H_
