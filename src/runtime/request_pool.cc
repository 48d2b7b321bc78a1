#include "runtime/request_pool.h"

#include <algorithm>

#include "common/log.h"

namespace neupims::runtime {

RequestId
RequestPool::submit(int input_length, int output_length,
                    int priority_class, Cycle ttft_slo, Cycle tpt_slo)
{
    NEUPIMS_ASSERT(input_length >= 1 && output_length >= 1);
    Request req;
    req.id = static_cast<RequestId>(all_.size());
    req.inputLength = input_length;
    req.outputLength = output_length;
    req.priorityClass = priority_class;
    req.ttftSlo = ttft_slo;
    req.tptSlo = tpt_slo;
    all_.push_back(req);
    waiting_.push_back(req.id);
    return req.id;
}

RequestId
RequestPool::submitAt(Cycle arrival, int input_length,
                      int output_length, int priority_class,
                      Cycle ttft_slo, Cycle tpt_slo)
{
    RequestId id = submit(input_length, output_length, priority_class,
                          ttft_slo, tpt_slo);
    all_[id].arrivalCycle = arrival;
    // submit() queued it as already-waiting; take it back out and
    // park it until the clock reaches its arrival.
    NEUPIMS_ASSERT(waiting_.back() == id);
    waiting_.pop_back();
    pending_.push(PendingArrival{arrival, id});
    return id;
}

int
RequestPool::releaseArrivals(Cycle now)
{
    int released = 0;
    while (!pending_.empty() && pending_.top().arrival <= now) {
        waiting_.push_back(pending_.top().id);
        pending_.pop();
        ++released;
    }
    return released;
}

Cycle
RequestPool::nextArrivalCycle() const
{
    return pending_.empty() ? kCycleMax : pending_.top().arrival;
}

void
RequestPool::admitId(RequestId id)
{
    auto it = std::find(waiting_.begin(), waiting_.end(), id);
    NEUPIMS_ASSERT(it != waiting_.end(), "request not waiting: ", id);
    waiting_.erase(it);
    all_[id].status = RequestStatus::Running;
    all_[id].beginPrefill();
    running_.push_back(id);
}

void
RequestPool::markTerminal(Request &req, RequestStatus terminal)
{
    NEUPIMS_ASSERT(isTerminalStatus(terminal));
    NEUPIMS_ASSERT(!isTerminalStatus(req.status),
                   "request ", req.id,
                   " already terminal; a request is counted in "
                   "exactly one terminal state");
    req.status = terminal;
    switch (terminal) {
    case RequestStatus::Done:
        ++completed_;
        break;
    case RequestStatus::Dropped:
        ++dropped_;
        break;
    case RequestStatus::TimedOut:
        ++timedOut_;
        break;
    case RequestStatus::Shed:
        ++shed_;
        break;
    default:
        break;
    }
}

void
RequestPool::dropWaiting(RequestId id)
{
    auto it = std::find(waiting_.begin(), waiting_.end(), id);
    NEUPIMS_ASSERT(it != waiting_.end(), "request not waiting: ", id);
    waiting_.erase(it);
    markTerminal(all_[id], RequestStatus::Dropped);
}

void
RequestPool::abandon(RequestId id, RequestStatus terminal)
{
    NEUPIMS_ASSERT(terminal == RequestStatus::TimedOut ||
                       terminal == RequestStatus::Shed,
                   "abandon() only timed-out/shed terminals");
    auto wit = std::find(waiting_.begin(), waiting_.end(), id);
    if (wit != waiting_.end()) {
        waiting_.erase(wit);
    } else {
        auto rit = std::find(running_.begin(), running_.end(), id);
        if (rit != running_.end()) {
            running_.erase(rit);
        } else {
            auto pit =
                std::find(preempted_.begin(), preempted_.end(), id);
            NEUPIMS_ASSERT(pit != preempted_.end(),
                           "abandoning request ", id,
                           " that is not live");
            preempted_.erase(pit);
        }
    }
    markTerminal(all_[id], terminal);
}

void
RequestPool::requeue(RequestId id)
{
    auto it = std::find(running_.begin(), running_.end(), id);
    NEUPIMS_ASSERT(it != running_.end(), "request not running: ", id);
    running_.erase(it);
    all_[id].status = RequestStatus::Waiting;
    // Reinsert at the arrival-ordered position (waiting_ is always
    // id-sorted: arrivals release in (arrival, id) order and ids are
    // assigned in submission order), preserving the waitingIds()
    // order contract policies tie-break against. A requeued head —
    // the only case Fcfs produces — lands back at the front.
    waiting_.insert(
        std::lower_bound(waiting_.begin(), waiting_.end(), id), id);
}

RequestId
RequestPool::waitingHead() const
{
    NEUPIMS_ASSERT(!waiting_.empty());
    return waiting_.front();
}

void
RequestPool::preempt(RequestId id, bool recompute)
{
    auto it = std::find(running_.begin(), running_.end(), id);
    NEUPIMS_ASSERT(it != running_.end(), "request not running: ", id);
    running_.erase(it);
    all_[id].preempt(recompute);
    preempted_.push_back(id);
}

void
RequestPool::restore(RequestId id)
{
    auto it = std::find(preempted_.begin(), preempted_.end(), id);
    NEUPIMS_ASSERT(it != preempted_.end(),
                   "request not preempted: ", id);
    preempted_.erase(it);
    all_[id].restore();
    running_.push_back(id);
}

std::vector<Request *>
RequestPool::runningRequests()
{
    std::vector<Request *> out;
    out.reserve(running_.size());
    for (RequestId id : running_)
        out.push_back(&all_[id]);
    return out;
}

std::vector<RequestId>
RequestPool::advanceRequests(const std::vector<Request *> &decoded)
{
    std::vector<RequestId> retired;
    for (Request *req : decoded) {
        NEUPIMS_ASSERT(req->status == RequestStatus::Running,
                       "advancing non-running request ", req->id);
        req->advance();
        ++totalTokens_;
        if (req->finished())
            retired.push_back(req->id);
    }
    if (!retired.empty()) {
        running_.erase(
            std::remove_if(running_.begin(), running_.end(),
                           [this](RequestId id) {
                               return all_[id].finished();
                           }),
            running_.end());
        completed_ += retired.size();
    }
    return retired;
}

bool
RequestPool::conservationHolds() const
{
    // Queue sizes + terminal counters must partition the submissions.
    std::uint64_t accounted =
        static_cast<std::uint64_t>(pending_.size()) + waiting_.size() +
        running_.size() + preempted_.size() + completed_ + dropped_ +
        timedOut_ + shed_;
    if (accounted != all_.size())
        return false;
    // Exhaustive census: each per-status population matches its
    // queue/counter, so no request is double-counted or lost.
    std::uint64_t waiting = 0, running = 0, preempted = 0, done = 0,
                  droppedN = 0, timedOutN = 0, shedN = 0;
    for (const Request &req : all_) {
        switch (req.status) {
        case RequestStatus::Waiting:
            ++waiting; // pending arrivals also report Waiting
            break;
        case RequestStatus::Running:
            ++running;
            break;
        case RequestStatus::Preempted:
            ++preempted;
            break;
        case RequestStatus::Done:
            ++done;
            break;
        case RequestStatus::Dropped:
            ++droppedN;
            break;
        case RequestStatus::TimedOut:
            ++timedOutN;
            break;
        case RequestStatus::Shed:
            ++shedN;
            break;
        }
    }
    return waiting == pending_.size() + waiting_.size() &&
           running == running_.size() &&
           preempted == preempted_.size() && done == completed_ &&
           droppedN == dropped_ && timedOutN == timedOut_ &&
           shedN == shed_;
}

void
RequestPool::assertConservation() const
{
    if (conservationHolds())
        return;
    fatal("request-pool conservation violated: submitted=",
          all_.size(), " pending=", pending_.size(), " waiting=",
          waiting_.size(), " running=", running_.size(),
          " preempted=", preempted_.size(), " completed=", completed_,
          " dropped=", dropped_, " timedOut=", timedOut_,
          " shed=", shed_);
}

Request &
RequestPool::request(RequestId id)
{
    NEUPIMS_ASSERT(id >= 0 &&
                   id < static_cast<RequestId>(all_.size()));
    return all_[id];
}

const Request &
RequestPool::request(RequestId id) const
{
    NEUPIMS_ASSERT(id >= 0 &&
                   id < static_cast<RequestId>(all_.size()));
    return all_[id];
}

} // namespace neupims::runtime
