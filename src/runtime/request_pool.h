/**
 * @file
 * The request pool table (paper Fig. 7 item 3): requests stream in,
 * wait until an iteration boundary, run batched, and retire — the
 * Orca-style iteration-level scheduling substrate NeuPIMs builds on.
 */

#ifndef NEUPIMS_RUNTIME_REQUEST_POOL_H_
#define NEUPIMS_RUNTIME_REQUEST_POOL_H_

#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "runtime/request.h"

namespace neupims::runtime {

class RequestPool
{
  public:
    /**
     * Submit a new request; returns its id. @p priority_class and the
     * SLO targets are scheduling-policy inputs (runtime/sched_policy.h)
     * stamped onto the request verbatim; the defaults reproduce a
     * classless, target-less request.
     */
    RequestId submit(int input_length, int output_length,
                     int priority_class = 0, Cycle ttft_slo = 0,
                     Cycle tpt_slo = 0);

    /**
     * Submit a request that arrives at simulated cycle @p arrival. It
     * stays pending — invisible to admission — until
     * releaseArrivals(now) with now >= arrival moves it to the waiting
     * queue. Arrivals may be submitted in any time order; release is
     * always time-ordered (ties broken by submission order).
     */
    RequestId submitAt(Cycle arrival, int input_length,
                       int output_length, int priority_class = 0,
                       Cycle ttft_slo = 0, Cycle tpt_slo = 0);

    /**
     * Move every pending request with arrivalCycle <= @p now into the
     * waiting queue, in (arrival, submission) order.
     * @return number of requests released.
     */
    int releaseArrivals(Cycle now);

    /** Earliest pending arrival cycle, or kCycleMax if none. */
    Cycle nextArrivalCycle() const;

    /** Requests submitted but not yet arrived. */
    std::size_t pendingCount() const { return pending_.size(); }

    /** Requests waiting for admission, FIFO order. */
    std::size_t waitingCount() const { return waiting_.size(); }
    std::size_t runningCount() const { return running_.size(); }
    std::size_t preemptedCount() const { return preempted_.size(); }
    std::uint64_t completedCount() const { return completed_; }
    std::uint64_t droppedCount() const { return dropped_; }
    std::uint64_t timedOutCount() const { return timedOut_; }
    std::uint64_t shedCount() const { return shed_; }

    /**
     * Admit one specific waiting request into the running batch; it
     * enters the prefill phase (cursor at 0). Scheduling policies
     * pick admission order; Fcfs always picks the head.
     * @pre @p id is in the waiting queue.
     */
    void admitId(RequestId id);

    /** The waiting queue, admission (arrival) order. */
    const std::deque<RequestId> &waitingIds() const { return waiting_; }

    /**
     * Reject a specific waiting request (the policy's admission pick
     * can never be placed, e.g. its sequence exceeds every channel's
     * KV capacity). @pre @p id is in the waiting queue.
     */
    void dropWaiting(RequestId id);

    /**
     * Undo an admission: move a just-admitted request back into the
     * waiting queue at its arrival-ordered position (used when no
     * channel can host its KV cache this iteration; a requeued head
     * returns to the head).
     */
    void requeue(RequestId id);

    /** Head of the waiting queue. @pre waitingCount() > 0 */
    RequestId waitingHead() const;

    /**
     * Evict a running request under KV memory pressure (iteration
     * boundary only): it leaves the running batch and joins the
     * preempted queue, FIFO by eviction order. With @p recompute its
     * prefill cursor resets so the restore re-runs the prompt (and the
     * generated tokens) through prefill; without it the phase/cursor
     * survive for a swap restore.
     */
    void preempt(RequestId id, bool recompute);

    /**
     * Restore a preempted request into the running batch (its KV
     * pages were re-reserved by the caller). It rejoins at the back of
     * the running order, i.e. as the youngest for LIFO victim
     * selection.
     */
    void restore(RequestId id);

    /** Preempted request ids, FIFO by eviction order. */
    const std::deque<RequestId> &preemptedIds() const { return preempted_; }

    /** Running request ids, in running order (admission/restore). */
    const std::vector<RequestId> &runningIds() const { return running_; }

    /** A snapshot of pointers to the running batch, in running order
     * (stable for this iteration; safe to walk while preempting). */
    std::vector<Request *> runningRequests();

    /**
     * Advance exactly the given decode-phase requests by one generated
     * token and retire the finished ones (in running order). Requests
     * still in prefill are left untouched. @return retired ids.
     */
    std::vector<RequestId>
    advanceRequests(const std::vector<Request *> &decoded);

    /**
     * Abandon a live (waiting, running or preempted) request into the
     * terminal state @p terminal — TimedOut (client deadline expired)
     * or Shed (load-shedding gate). The caller frees any KV pages; the
     * pool removes it from whichever live queue holds it and counts it
     * in exactly one terminal bucket. @pre the request is live.
     */
    void abandon(RequestId id, RequestStatus terminal);

    /** The request @p id; the reference stays valid for the pool's
     * lifetime (submitAt never moves a stored request). */
    Request &request(RequestId id);
    const Request &request(RequestId id) const;

    std::uint64_t totalGeneratedTokens() const { return totalTokens_; }

    /**
     * Exhaustive conservation check: every submitted request is in
     * exactly one live queue or one terminal bucket, the queue sizes
     * and terminal counters sum to the submission count, and each
     * per-status census matches its counter. O(n); called by tests
     * and once at the end of a serving run.
     */
    bool conservationHolds() const;

    /** fatal() with a full census on a conservation violation. */
    void assertConservation() const;

  private:
    /**
     * Single funnel into a terminal state: asserts the request is not
     * already terminal (a request is counted in exactly ONE of
     * completed/dropped/timed-out/shed) and bumps the matching
     * counter.
     */
    void markTerminal(Request &req, RequestStatus terminal);

    /** Pending arrival ordered by (arrival cycle, submission seq). */
    struct PendingArrival
    {
        Cycle arrival;
        RequestId id;

        bool
        operator>(const PendingArrival &other) const
        {
            if (arrival != other.arrival)
                return arrival > other.arrival;
            return id > other.id;
        }
    };

    /** Indexed by RequestId. A deque keeps every element's address
     * on push_back: schedules hold Request pointers across a
     * mid-iteration submitAt (a shed victim's retry). */
    std::deque<Request> all_;
    std::priority_queue<PendingArrival, std::vector<PendingArrival>,
                        std::greater<>>
        pending_; ///< submitted, not yet arrived
    std::deque<RequestId> waiting_;
    std::vector<RequestId> running_;
    std::deque<RequestId> preempted_; ///< evicted, FIFO restore order
    std::uint64_t completed_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t timedOut_ = 0;
    std::uint64_t shed_ = 0;
    std::uint64_t totalTokens_ = 0;
};

} // namespace neupims::runtime

#endif // NEUPIMS_RUNTIME_REQUEST_POOL_H_
