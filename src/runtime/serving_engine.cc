#include "runtime/serving_engine.h"

#include <algorithm>
#include <map>

#include "common/log.h"

namespace neupims::runtime {

double
ServingReport::tokensPerSecond() const
{
    if (makespanCycles == 0)
        return 0.0;
    return static_cast<double>(generatedTokens) /
           cyclesToSeconds(makespanCycles);
}

double
ServingReport::goodputTokensPerSecond() const
{
    if (makespanCycles == 0)
        return 0.0;
    return static_cast<double>(goodputTokens) /
           cyclesToSeconds(makespanCycles);
}

const ClassServingReport &
ServingReport::classReport(int priority_class) const
{
    static const ClassServingReport kEmpty;
    for (const auto &c : classes) {
        if (c.priorityClass == priority_class)
            return c;
    }
    return kEmpty;
}

ServingEngine::ServingEngine(const ServingConfig &cfg,
                             TrafficModel &traffic,
                             IterationLatencyModel &latency)
    : cfg_(cfg), traffic_(traffic), latency_(latency), kv_(cfg.kv),
      fault_(cfg.fault, cfg.scheduler.channels),
      scheduler_(cfg.scheduler, pool_, kv_, &fault_),
      retryRng_(cfg.client.seed ^ 0xbac0ffULL)
{}

ServingReport
ServingEngine::run()
{
    NEUPIMS_ASSERT(!ran_, "ServingEngine::run is one-shot");
    ran_ = true;

    ServingReport report;
    report.traffic = traffic_.name();

    // Open-loop arrivals: the whole trace is independent of service,
    // so it can be drained into the pool's time-ordered pending queue
    // up front. (Retries are the exception — they are re-submitted
    // closed-loop as prior attempts are abandoned below.)
    bool anyTimeouts = false;
    while (auto ev = traffic_.next()) {
        RequestId id =
            pool_.submitAt(ev->time, ev->inputLength, ev->outputLength,
                           ev->priorityClass, ev->ttftSlo, ev->tptSlo);
        if (ev->clientTimeout > 0) {
            pool_.request(id).clientTimeout = ev->clientTimeout;
            anyTimeouts = true;
        }
        if (ev->sessionId >= 0 || ev->prefixGroup >= 0 ||
            !ev->promptTokens.empty()) {
            Request &req = pool_.request(id);
            req.sessionId = ev->sessionId;
            req.prefixGroup = ev->prefixGroup;
            req.promptTokens = std::move(ev->promptTokens);
        }
        ++report.requestsSubmitted;
    }

    const bool preempting = cfg_.scheduler.preempt.enabled();
    Cycle now = 0;
    int iteration = 0;
    std::uint64_t batchSum = 0;
    // Never-fit drops (and the availability events below) can land at
    // boundaries whose schedule carries no priceable work (no trace
    // row); carry them into the next recorded row so the trace
    // surfaces every one.
    int pendingDrops = 0;
    int pendingTimedOut = 0;
    int pendingShed = 0;
    int pendingRetries = 0;
    int pendingFaultPreempted = 0;
    int retriesScheduledNow = 0;

    // Re-submit an abandoned attempt as a NEW arrival after
    // exponential backoff with jitter (dedicated RNG stream — no draw
    // unless a retry actually fires). submitAt never moves a stored
    // request, so `req` and the Request pointers in this iteration's
    // schedule stay valid across it.
    auto scheduleRetry = [&](RequestId abandoned) {
        const Request &req = pool_.request(abandoned);
        if (req.attempt >= cfg_.client.maxRetries)
            return;
        Cycle base = cfg_.client.backoffCycles
                     << static_cast<unsigned>(req.attempt);
        Cycle delay = static_cast<Cycle>(
            static_cast<double>(base) *
            (1.0 + cfg_.client.jitterFrac * retryRng_.uniform()));
        RequestId nid =
            pool_.submitAt(now + delay, req.inputLength,
                           req.outputLength, req.priorityClass,
                           req.ttftSlo, req.tptSlo);
        Request &fresh = pool_.request(nid);
        fresh.clientTimeout = req.clientTimeout;
        fresh.attempt = req.attempt + 1;
        fresh.retryOf = abandoned;
        // A retry re-sends the same conversation turn: identical
        // prompt content, so its prefix can hit pages the abandoned
        // attempt (or its cohort) published.
        fresh.sessionId = req.sessionId;
        fresh.prefixGroup = req.prefixGroup;
        fresh.promptTokens = req.promptTokens;
        ++report.requestsSubmitted;
        ++retriesScheduledNow;
    };

    // Time-to-recovery tracking: one open window per fault event that
    // force-evicted at least one request, closed when its last victim
    // is re-dispatched (or abandoned by a timeout).
    struct OpenRecovery
    {
        Cycle start;
        std::vector<RequestId> victims;
    };
    std::vector<OpenRecovery> openRecoveries;
    auto settleRecovery = [&](RequestId id) {
        for (auto it = openRecoveries.begin();
             it != openRecoveries.end();) {
            auto &v = it->victims;
            v.erase(std::remove(v.begin(), v.end(), id), v.end());
            if (v.empty()) {
                report.recoveryUs.record(
                    cyclesToMicros(now - it->start));
                it = openRecoveries.erase(it);
            } else {
                ++it;
            }
        }
    };

    while (true) {
        pool_.releaseArrivals(now);
        retriesScheduledNow = 0;

        // Client deadlines: abandon every live attempt whose deadline
        // passed — the engine aborts it mid-flight, frees its KV pages
        // and (if attempts remain) queues a backoff re-submission.
        int timedOutNow = 0;
        if (anyTimeouts) {
            std::vector<RequestId> expired;
            auto collect = [&](const auto &ids) {
                for (RequestId id : ids) {
                    if (now >= pool_.request(id).deadlineCycle())
                        expired.push_back(id);
                }
            };
            collect(pool_.waitingIds());
            collect(pool_.runningIds());
            collect(pool_.preemptedIds());
            std::sort(expired.begin(), expired.end());
            for (RequestId id : expired) {
                report.wastedTokens += static_cast<std::uint64_t>(
                    pool_.request(id).generatedTokens);
                kv_.freeSequence(id);
                pool_.abandon(id, RequestStatus::TimedOut);
                settleRecovery(id);
                scheduleRetry(id);
                ++timedOutNow;
            }
            pendingTimedOut += timedOutNow;
        }

        if (pool_.waitingCount() == 0 && pool_.runningCount() == 0 &&
            pool_.preemptedCount() == 0) {
            Cycle next_arrival = pool_.nextArrivalCycle();
            if (next_arrival == kCycleMax)
                break; // served everything
            // Idle: fast-forward the clock to the next arrival.
            now = std::max(now, next_arrival);
            continue;
        }

        const IterationSchedule &schedule =
            scheduler_.scheduleIteration(now);
        pendingDrops +=
            static_cast<int>(schedule.droppedNeverFit.size());

        // Boundary bookkeeping happens at `now` whether or not the
        // schedule carries priceable work: close the eviction span of
        // every restored request, then open one per fresh victim (the
        // scheduler never restores a victim of the same boundary).
        for (Request *req : schedule.restoredNow) {
            NEUPIMS_ASSERT(req->preemptStartCycle != kCycleMax);
            Cycle span = now - req->preemptStartCycle;
            req->preemptedCycles += span;
            req->preemptStartCycle = kCycleMax;
            report.restoreUs.record(cyclesToMicros(span));
            settleRecovery(req->id);
        }
        for (Request *req : schedule.preemptedNow)
            req->preemptStartCycle = now;
        if (!schedule.faultPreemptedNow.empty()) {
            OpenRecovery rec;
            rec.start = now;
            for (Request *req : schedule.faultPreemptedNow)
                rec.victims.push_back(req->id);
            openRecoveries.push_back(std::move(rec));
        }
        // Shed victims left the pool inside the scheduler (they never
        // held KV pages); give each its backoff re-submission.
        for (RequestId id : schedule.shedNow)
            scheduleRetry(id);
        pendingShed += static_cast<int>(schedule.shedNow.size());
        pendingFaultPreempted +=
            static_cast<int>(schedule.faultPreemptedNow.size());
        pendingRetries += retriesScheduledNow;

        if (schedule.empty() && (!schedule.restoredNow.empty() ||
                                 schedule.swapOutBytes > 0)) {
            // Transfer-only iteration: a swap-out or swap-in with no
            // compute scheduled still occupies the host link (and a
            // recompute re-admission the boundary); the surviving
            // work joins the batch at the next boundary. Fall
            // through to price it as an iteration.
        } else if (schedule.empty()) {
            bool boundary_progress =
                !schedule.droppedNeverFit.empty() ||
                !schedule.preemptedNow.empty() ||
                !schedule.shedNow.empty() || timedOutNow > 0;
            if (preempting) {
                if (!boundary_progress && fault_.enabled()) {
                    // Every live resident is dark (failed channels
                    // evict, but a brownout parks its residents
                    // in place): nothing can run until a brownout
                    // lifts or new work arrives. A permanent loss of
                    // every channel with live requests has no future
                    // transition and is a (documented) fatal.
                    Cycle next =
                        std::min(fault_.nextTransitionCycle(),
                                 pool_.nextArrivalCycle());
                    NEUPIMS_ASSERT(
                        next != kCycleMax && next > now,
                        "no schedulable work and no future fault "
                        "transition or arrival (all channels lost?): "
                        "running=", pool_.runningCount(),
                        " waiting=", pool_.waitingCount(),
                        " preempted=", pool_.preemptedCount());
                    now = next;
                    continue;
                }
                // The scheduler already rejected never-fitting heads
                // and preemption frees pages for the next boundary —
                // both count as progress (as do sheds and timeouts);
                // anything else would livelock (preemption never
                // strands fitting work).
                NEUPIMS_ASSERT(boundary_progress,
                               "empty schedule without progress "
                               "under preemption: running=",
                               pool_.runningCount(), " waiting=",
                               pool_.waitingCount(), " preempted=",
                               pool_.preemptedCount());
                continue;
            }
            if (!schedule.shedNow.empty() || timedOutNow > 0)
                continue; // the boundary made progress without work
            // Nothing running and the policy's admission pick cannot
            // be placed on any channel even with the device empty —
            // it can never be served. Reject exactly the blocking
            // request (under a reordering policy it need not be the
            // waiting-queue head) rather than livelock. Admission
            // either admits its pick, which then gets a prefill slice,
            // or requeues it and names it here.
            NEUPIMS_ASSERT(pool_.waitingCount() > 0 &&
                               schedule.admissionBlockedBy != kInvalidId,
                           "empty schedule names no blocked request");
            pool_.dropWaiting(schedule.admissionBlockedBy);
            continue;
        }

        Cycle iter_cycles = latency_.iterationCycles(schedule);
        NEUPIMS_ASSERT(iter_cycles > 0, "iteration latency must advance "
                                        "time");
        Cycle iter_end = now + iter_cycles;

        double max_load = 0.0;
        for (double l : schedule.channelLoads)
            max_load = std::max(max_load, l);

        // Stamp the serving timeline. Requests admitted this iteration
        // were picked up at the iteration boundary `now` (whether or
        // not they received a prefill slice yet).
        for (RequestId id : pool_.runningIds()) {
            Request &req = pool_.request(id);
            if (req.admitCycle == kCycleMax)
                req.admitCycle = now;
        }
        // A slice that consumes the last prompt tokens completes the
        // prefill phase when the iteration does. A recompute restore
        // re-runs prefill over a longer target; its original
        // prefill-end stamp (the TTFT component) is never overwritten.
        for (const PrefillSlice &slice : schedule.prefill) {
            if (slice.startToken + slice.tokens >=
                    slice.req->prefillTargetTokens() &&
                slice.req->prefillEndCycle == kCycleMax)
                slice.req->prefillEndCycle = iter_end;
        }
        // Every decode participant emits one token when the iteration
        // completes; a request emitting its last token finishes.
        for (Request *req : schedule.batch) {
            if (req->generatedTokens == 0)
                req->firstTokenCycle = iter_end;
            if (req->generatedTokens + 1 >= req->outputLength)
                req->finishCycle = iter_end;
        }

        int prefill_tokens = schedule.prefillTokens();
        int retired = scheduler_.completeIteration(schedule);

        IterationTraceRow row;
        row.iteration = iteration;
        row.startCycle = now;
        row.iterationCycles = iter_cycles;
        row.batch = schedule.batchSize();
        row.prefilling = static_cast<int>(schedule.prefill.size());
        row.prefillTokens = prefill_tokens;
        row.admitted = schedule.admitted;
        row.retired = retired;
        row.dropped = pendingDrops;
        row.waiting = static_cast<int>(pool_.waitingCount());
        row.maxChannelLoad = max_load;
        row.kvUtilization = kv_.utilization();
        row.preempted = static_cast<int>(schedule.preemptedNow.size());
        row.restored = static_cast<int>(schedule.restoredNow.size());
        row.preemptedPool = static_cast<int>(pool_.preemptedCount());
        row.swapOutBytes = schedule.swapOutBytes;
        row.swapInBytes = schedule.swapInBytes;
        row.timedOut = pendingTimedOut;
        row.shed = pendingShed;
        row.retriesScheduled = pendingRetries;
        row.faultPreempted = pendingFaultPreempted;
        row.offlineChannels = fault_.offlineCount();
        trace_.push_back(row);

        pendingDrops = 0;
        pendingTimedOut = 0;
        pendingShed = 0;
        pendingRetries = 0;
        pendingFaultPreempted = 0;

        report.prefilledTokens +=
            static_cast<std::uint64_t>(prefill_tokens);
        batchSum += static_cast<std::uint64_t>(
            schedule.batchSize() +
            static_cast<int>(schedule.prefill.size()));
        now = iter_end;
        ++iteration;

        if (now > cfg_.maxCycles ||
            (cfg_.maxIterations > 0 &&
             iteration >= cfg_.maxIterations)) {
            report.hitSafetyStop = true;
            break;
        }
    }

    report.iterations = iteration;
    report.makespanCycles = now;
    report.generatedTokens = pool_.totalGeneratedTokens();
    report.requestsCompleted =
        static_cast<int>(pool_.completedCount());
    report.meanBatchSize =
        iteration > 0 ? static_cast<double>(batchSum) /
                            static_cast<double>(iteration)
                      : 0.0;

    report.requestsDropped = static_cast<int>(pool_.droppedCount());
    report.requestsTimedOut =
        static_cast<int>(pool_.timedOutCount());
    report.requestsShed = static_cast<int>(pool_.shedCount());
    report.requestsInFlight = report.requestsSubmitted -
                              report.requestsCompleted -
                              report.requestsDropped -
                              report.requestsTimedOut -
                              report.requestsShed;

    const PreemptStats &ps = scheduler_.preemptStats();
    report.preemptions = ps.preemptions;
    report.restores = ps.restores;
    report.kvPagesEvicted = ps.pagesFreed;
    report.swapOutBytes = ps.swapOutBytes;
    report.swapInBytes = ps.swapInBytes;
    report.faultPreemptions = ps.faultPreemptions;
    report.kvPagesLost = ps.kvPagesLost;
    report.channelsFailed = ps.channelsFailed;
    report.channelsBrownedOut = ps.brownouts;

    // Terminal-state conservation: every submitted request landed in
    // exactly one of completed/dropped/timed-out/shed or is still live
    // (safety stop); the pool's census must balance.
    pool_.assertConservation();

    // Latency distributions in request id (= submission) order so the
    // report is deterministic. A safety stop leaves requests in
    // flight with kCycleMax timeline sentinels; each statistic only
    // samples requests whose relevant stamps exist, so sentinels
    // never fold into the percentiles: TTFT (and its decomposition)
    // covers every request that produced a first token, end-to-end
    // only the finished ones.
    // Per-class accumulators alongside the run-wide stats; the SLO
    // targets fall back to the scheduler policy's defaults so
    // attainment is always well-defined.
    struct ClassAccum
    {
        ClassServingReport rep;
        int ttftOk = 0, ttftSamples = 0;
        int tptOk = 0, tptSamples = 0;
    };
    std::map<int, ClassAccum> perClass;
    const Cycle defaultTtftSlo = cfg_.scheduler.policy.defaultTtftSlo;
    const Cycle defaultTptSlo = cfg_.scheduler.policy.defaultTptSlo;

    for (RequestId id = 0;
         id < static_cast<RequestId>(report.requestsSubmitted); ++id) {
        const Request &req = pool_.request(id);
        ClassAccum &cls = perClass[req.priorityClass];
        ++cls.rep.submitted;
        if (req.status == RequestStatus::Dropped)
            ++cls.rep.dropped;
        if (req.status == RequestStatus::TimedOut)
            ++cls.rep.timedOut;
        if (req.status == RequestStatus::Shed)
            ++cls.rep.shed;
        if (req.attempt > 0) {
            ++report.requestsRetried;
            ++cls.rep.retried;
        }
        if (req.preemptions > 0) {
            ++report.requestsPreempted;
            ++cls.rep.preempted;
            if (req.status == RequestStatus::Done)
                report.preemptedUs.record(
                    cyclesToMicros(req.preemptedCycles));
        }
        if (req.firstTokenCycle != kCycleMax) {
            report.ttftUs.record(cyclesToMicros(req.ttft()));
            report.queueUs.record(
                cyclesToMicros(req.queueingDelay()));
            report.prefillUs.record(
                cyclesToMicros(req.prefillLatency()));
            report.firstDecodeUs.record(
                cyclesToMicros(req.firstDecodeLatency()));
            cls.rep.ttftUs.record(cyclesToMicros(req.ttft()));
            Cycle target = req.ttftSlo ? req.ttftSlo : defaultTtftSlo;
            ++cls.ttftSamples;
            if (req.ttft() <= target)
                ++cls.ttftOk;
        }
        if (req.status != RequestStatus::Done ||
            req.finishCycle == kCycleMax)
            continue;
        ++cls.rep.completed;
        double e2e_us = cyclesToMicros(req.endToEnd());
        double per_token_ms =
            e2e_us * 1e-3 / static_cast<double>(req.outputLength);
        report.e2eUs.record(e2e_us);
        report.perTokenMs.record(per_token_ms);
        cls.rep.e2eUs.record(e2e_us);
        cls.rep.perTokenMs.record(per_token_ms);
        Cycle tpt_target = req.tptSlo ? req.tptSlo : defaultTptSlo;
        ++cls.tptSamples;
        bool tpt_ok = req.endToEnd() <=
                      tpt_target * static_cast<Cycle>(req.outputLength);
        if (tpt_ok)
            ++cls.tptOk;
        // Goodput: completed AND inside both SLO targets — the
        // throughput a degraded run still delivers usefully.
        Cycle ttft_target = req.ttftSlo ? req.ttftSlo : defaultTtftSlo;
        if (tpt_ok && req.firstTokenCycle != kCycleMax &&
            req.ttft() <= ttft_target) {
            ++report.requestsInSlo;
            report.goodputTokens +=
                static_cast<std::uint64_t>(req.outputLength);
        }
        if (req.outputLength > 1) {
            report.tbtUs.record(req.timeBetweenTokens() * 1e-3);
            cls.rep.tbtUs.record(req.timeBetweenTokens() * 1e-3);
        }
    }

    for (auto &entry : perClass) {
        ClassAccum &cls = entry.second;
        cls.rep.priorityClass = entry.first;
        if (cls.ttftSamples > 0)
            cls.rep.ttftAttainment =
                static_cast<double>(cls.ttftOk) /
                static_cast<double>(cls.ttftSamples);
        if (cls.tptSamples > 0)
            cls.rep.tptAttainment =
                static_cast<double>(cls.tptOk) /
                static_cast<double>(cls.tptSamples);
        report.classes.push_back(std::move(cls.rep));
    }
    report.memSched = latency_.memSchedSummary();

    const PrefixShareStats &px = kv_.prefixStats();
    report.prefixAdmissions = px.admissions;
    report.prefixHits = px.hits;
    report.prefixTokensDeduped = px.tokensDeduped;
    report.prefixPagesDeduped = px.pagesDeduped;
    report.prefixCowCopies = px.cowCopies;
    report.prefixPagesPublished = px.pagesPublished;
    report.prefixPagesReclaimed = px.pagesReclaimed;
    if (px.admissions > 0)
        report.prefixHitRate = static_cast<double>(px.hits) /
                               static_cast<double>(px.admissions);
    return report;
}

} // namespace neupims::runtime
