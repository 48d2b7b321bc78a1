#include "runtime/batch_scheduler.h"

#include <algorithm>
#include <limits>

#include "common/log.h"
#include "runtime/fault_model.h"

namespace neupims::runtime {

namespace {

/** Empty @p s for the next boundary, keeping every list's storage
 * (channelLoads is refilled whole). */
void
clearSchedule(IterationSchedule &s)
{
    s.batch.clear();
    s.prefill.clear();
    s.admitted = 0;
    s.preemptedNow.clear();
    s.restoredNow.clear();
    s.droppedNeverFit.clear();
    s.admissionBlockedBy = kInvalidId;
    s.swapOutBytes = 0;
    s.swapInBytes = 0;
    s.swapBytesPerCycle = 0.0;
    s.faultPreemptedNow.clear();
    s.shedNow.clear();
    s.channelSlowdowns.clear();
}

} // namespace

double
IterationSchedule::stragglerInflation() const
{
    if (channelSlowdowns.empty())
        return 1.0;
    double max_load = 0.0, max_slowed = 0.0, max_factor = 1.0;
    for (std::size_t ch = 0; ch < channelSlowdowns.size(); ++ch) {
        double load =
            ch < channelLoads.size() ? channelLoads[ch] : 0.0;
        max_load = std::max(max_load, load);
        max_slowed = std::max(max_slowed, load * channelSlowdowns[ch]);
        max_factor = std::max(max_factor, channelSlowdowns[ch]);
    }
    if (max_load <= 0.0)
        return max_factor; // transfer-only boundary: worst window
    return std::max(1.0, max_slowed / max_load);
}

PreemptMode
preemptModeByName(const std::string &name)
{
    if (name == "off")
        return PreemptMode::Off;
    if (name == "recompute")
        return PreemptMode::Recompute;
    if (name == "swap")
        return PreemptMode::Swap;
    fatal("unknown preemption mode '", name,
          "' (expected off|recompute|swap)");
}

const char *
preemptModeName(PreemptMode mode)
{
    switch (mode) {
    case PreemptMode::Off:
        return "off";
    case PreemptMode::Recompute:
        return "recompute";
    case PreemptMode::Swap:
        return "swap";
    }
    return "?";
}

BatchScheduler::BatchScheduler(const SchedulerConfig &cfg,
                               RequestPool &pool, PagedKvCache &kv,
                               FaultModel *fault)
    : cfg_(cfg), pool_(pool), kv_(kv), fault_(fault),
      estimator_(cfg.estimator)
{
    NEUPIMS_ASSERT(!fault_ || !fault_->enabled() ||
                       cfg_.preempt.enabled(),
                   "fault injection requires preemption: channel-loss "
                   "recovery force-preempts residents in recompute "
                   "mode and re-dispatches them through the "
                   "restore/prefill path");
    NEUPIMS_ASSERT(cfg_.channels >= 1 && cfg_.maxBatch >= 1);
    NEUPIMS_ASSERT(cfg_.prefill.chunkTokens >= 0,
                   "the prefill token budget cannot be negative");
    NEUPIMS_ASSERT(!cfg_.preempt.enabled() || cfg_.prefill.piggyback,
                   "preemption requires piggybacked prefill: "
                   "stall-the-world prefill-only iterations exclude "
                   "decode page-holders from the schedule, so an old "
                   "decode resident could never progress nor be "
                   "evicted by a younger prefilling demander — "
                   "deadlock");
    NEUPIMS_ASSERT(cfg_.preempt.mode != PreemptMode::Swap ||
                       cfg_.preempt.swapGBps > 0,
                   "swap preemption needs a positive host link rate");
}

bool
BatchScheduler::lazyKvAlloc() const
{
    // Chunk-by-chunk reservation makes mid-prefill preemption
    // meaningful; it is tied to preemption so PreemptMode::Off keeps
    // the whole-prompt-at-admission accounting bit-for-bit.
    return cfg_.preempt.enabled();
}

int
BatchScheduler::admissionTokens(const Request &req) const
{
    if (!lazyKvAlloc())
        return req.currentSeqLen();
    // Admission only secures the first prefill chunk's pages; later
    // chunks reserve as their slices land (or preempt a victim).
    int remaining = req.remainingPrefill();
    if (cfg_.prefill.chunkTokens > 0)
        remaining = std::min(remaining, cfg_.prefill.chunkTokens);
    return std::max(1, remaining);
}

void
BatchScheduler::markUrgentChannels()
{
    urgent_.assign(static_cast<std::size_t>(cfg_.channels), false);
    for (RequestId id : pool_.runningIds()) {
        const Request &res = pool_.request(id);
        if (res.channel >= 0 && res.channel < cfg_.channels &&
            urgent(cfg_.policy, res, now_))
            urgent_[res.channel] = true;
    }
}

template <typename Room>
ChannelId
BatchScheduler::placeByUrgency(const Request &req,
                               const std::vector<double> &loads,
                               const Room &room)
{
    if (cfg_.minLoadPacking) {
        // Min-load channel among those with KV room (Algorithm 2).
        // A non-urgent request prefers channels hosting no urgent
        // resident (min-load within that subset, falling back to
        // all), so urgent requests keep KV headroom and see less
        // co-located pressure churn without distorting the load
        // balance. Under Fcfs every request is urgent, leaving the
        // historical min-load packing bit-for-bit.
        const bool isolate = !urgent(cfg_.policy, req, now_);
        if (isolate)
            markUrgentChannels();
        ChannelId best = kInvalidId;
        bool bestAvoids = false;
        for (ChannelId ch = 0; ch < cfg_.channels; ++ch) {
            // Offline channels (failed or browned out) leave the
            // packer — no new placement until restored. Always true
            // with faults disabled.
            if (!kv_.channelOnline(ch) || !room(ch))
                continue;
            bool avoids = isolate && !urgent_[ch];
            if (best == kInvalidId || (avoids && !bestAvoids) ||
                (avoids == bestAvoids && loads[ch] < loads[best])) {
                best = ch;
                bestAvoids = avoids;
            }
        }
        return best;
    }
    // Round-robin: first channel with room, starting at the cursor.
    for (int probe = 0; probe < cfg_.channels; ++probe) {
        ChannelId ch = (rrCursor_ + probe) % cfg_.channels;
        if (kv_.channelOnline(ch) && room(ch)) {
            rrCursor_ = (ch + 1) % cfg_.channels;
            return ch;
        }
    }
    return kInvalidId;
}

ChannelId
BatchScheduler::pickChannel(const Request &req,
                            std::vector<double> &loads)
{
    int tokens = admissionTokens(req);
    return placeByUrgency(req, loads, [&](ChannelId ch) {
        return kv_.canAllocate(ch, tokens);
    });
}

ChannelId
BatchScheduler::pickChannelWithPages(const Request &req,
                                     std::int64_t pages,
                                     const std::vector<double> &loads)
{
    return placeByUrgency(req, loads, [&](ChannelId ch) {
        return kv_.freePages(ch) - reserved_[ch] >= pages;
    });
}

RequestId
BatchScheduler::nextAdmission(IterationSchedule &out)
{
    const bool preempting = cfg_.preempt.enabled();
    const double lowest = lowestRank(cfg_.policy);
    while (pool_.waitingCount() > 0) {
        // First lowest rank: ties keep waiting-queue (arrival) order,
        // so under fcfs the head is the pick.
        RequestId pick = kInvalidId;
        double best = 0.0;
        for (RequestId id : pool_.waitingIds()) {
            double r = rank(cfg_.policy, pool_.request(id), now_);
            if (pick == kInvalidId || r < best) {
                pick = id;
                best = r;
                if (best <= lowest)
                    break;
            }
        }
        if (!preempting)
            return pick;
        // A sequence eventually holds prompt + output tokens on a
        // single channel. A pick that exceeds that bound can never
        // complete — under preemption it would evict the whole
        // channel and still not fit, a livelock; reject it instead
        // of stalling admission, and re-pick.
        const Request &req = pool_.request(pick);
        std::int64_t worst = kv_.pagesForTokens(req.inputLength +
                                                req.outputLength);
        if (worst <= kv_.config().pagesPerChannel())
            return pick;
        pool_.dropWaiting(pick);
        out.droppedNeverFit.push_back(pick);
    }
    return kInvalidId;
}

void
BatchScheduler::restorePreempted(IterationSchedule &out,
                                 std::vector<double> &loads)
{
    // Runs after resolveMemoryPressure, so restores only consume
    // pages the scheduled work left over: a restored request joins
    // the batch at the NEXT boundary (its transfer occupies this
    // iteration) and cannot be churned right back out by this
    // iteration's own demands.
    const double lowest = lowestRank(cfg_.policy);
    while (pool_.preemptedCount() > 0 &&
           pool_.runningCount() <
               static_cast<std::size_t>(cfg_.maxBatch)) {
        // First lowest rank (ties keep eviction FIFO order, which is
        // exactly what Fcfs degrades to), never bouncing a victim of
        // this very boundary straight back in (it would ride its own
        // freed pages out and back, pure transfer churn). A blocked
        // pick blocks the queue: anything it outranks must keep
        // waiting behind it (no overtaking, bounded starvation).
        Request *req = nullptr;
        double best = 0.0;
        for (RequestId id : pool_.preemptedIds()) {
            Request *cand = &pool_.request(id);
            bool evicted_now = false;
            for (const Request *p : out.preemptedNow)
                evicted_now = evicted_now || p == cand;
            if (evicted_now)
                continue;
            double r = rank(cfg_.policy, *cand, now_);
            if (!req || r < best) {
                req = cand;
                best = r;
                if (best <= lowest)
                    break;
            }
        }
        if (!req)
            break;
        // Per-request restore route, not per-config: under a Swap
        // config a fault victim was *evicted* (its channel died with
        // its pages — nothing to swap back in), so it restores
        // through the recompute/bind path while ordinary swap
        // victims transfer back from the host tier.
        if (!kv_.isSwappedOut(req->id)) {
            std::int64_t pages =
                kv_.pagesForTokens(admissionTokens(*req));
            ChannelId ch = pickChannelWithPages(*req, pages, loads);
            if (ch == kInvalidId)
                break;
            req->channel = ch;
            // Recompute restores walk the prefix index too: a victim
            // whose prefix pages stayed shared (or were republished
            // by a concurrent session) rebuilds only the unshared
            // suffix through prefill.
            int cached =
                kv_.bindSequence(req->id, ch, req->promptTokens);
            if (cached > 0)
                req->skipCachedPrefix(cached);
            // The bind itself can consume free capacity beyond the
            // picked estimate: reviving cached (refcount-0) index
            // pages takes them out of the reclaimable pool, and the
            // first chunk's actual bill differs from the raw page
            // math (after a prefix hit it starts mid-page; a shared
            // partial tail adds the COW page). Re-check the channel
            // against the boundary's outstanding reservations — if
            // the revival ate into pages the scheduled work was
            // promised, roll the bind back (dereference the revived
            // pages, reset the prefill skip) and stall restores
            // until a later boundary.
            std::int64_t append_need =
                kv_.pagesForAppend(req->id, admissionTokens(*req));
            if (kv_.freePages(ch) - reserved_[ch] < append_need) {
                kv_.evictSequence(req->id);
                req->prefilledTokens = 0;
                req->cachedPrefixTokens = 0;
                break;
            }
            // Count the chunk bill against later restores now, or
            // every queued restore would see the same room and pile
            // onto one channel. (The revival bill already landed in
            // freePages itself.)
            reserved_[ch] += append_need;
        } else {
            std::int64_t pages = kv_.hostPagesOf(req->id);
            ChannelId ch = pickChannelWithPages(*req, pages, loads);
            if (ch == kInvalidId)
                break;
            Bytes bytes = kv_.swapIn(req->id, ch);
            req->channel = ch;
            out.swapInBytes += bytes;
            preemptStats_.swapInBytes += bytes;
        }
        pool_.restore(req->id);
        loads[req->channel] +=
            estimator_.estimate(req->currentSeqLen());
        out.restoredNow.push_back(req);
        ++preemptStats_.restores;
    }
}

void
BatchScheduler::resolveMemoryPressure(IterationSchedule &out,
                                      std::vector<double> &loads)
{
    reserved_.assign(static_cast<std::size_t>(cfg_.channels), 0);
    const bool recompute = cfg_.preempt.mode == PreemptMode::Recompute;
    const bool lazy = lazyKvAlloc();

    // Page demands — decode appends and prefill slices — resolve in
    // the pressure order (rank, then id; Fcfs: ascending RequestId ==
    // submission order, the age-priority rule vLLM's scheduler uses):
    // a demander may only evict requests it strictly outranks, so the
    // top-ranked request in the system always makes progress and
    // preemption cannot livelock (DESIGN.md §8.1). A demander that
    // cannot be satisfied even after evicting every outranked
    // resident stalls for this iteration (its work is removed; it
    // keeps its pages) instead of churning.
    demands_.resize(static_cast<std::size_t>(cfg_.channels));
    for (auto &chd : demands_)
        chd.clear();
    for (Request *req : out.batch)
        demands_[req->channel].push_back(Demand{req, 1});
    if (lazy) {
        for (const PrefillSlice &slice : out.prefill)
            demands_[slice.req->channel].push_back(
                Demand{slice.req, slice.tokens});
    }

    auto drop_work = [&](Request *req) {
        out.batch.erase(
            std::remove(out.batch.begin(), out.batch.end(), req),
            out.batch.end());
        out.prefill.erase(
            std::remove_if(out.prefill.begin(), out.prefill.end(),
                           [req](const PrefillSlice &slice) {
                               return slice.req == req;
                           }),
            out.prefill.end());
    };

    auto pick_victim = [&](ChannelId ch,
                           const Request &demander) -> Request * {
        // Candidates: residents of the channel the demander strictly
        // outranks that hold pages (evicting a page-less request
        // frees nothing; its own demands are resolved on its own
        // turn). Eviction frees only the unshared suffix — pages the
        // victim holds by reference alongside another live sequence
        // stay resident for the other holder — so the victim score
        // sees the *evictable* count, not the raw footprint (the
        // refcount-aware obligation stated with §8.1's livelock rule;
        // DESIGN.md §13). A victim whose every page is shared frees
        // nothing immediately but stays eligible: evicting it drops
        // the refcounts, so its co-holders' pages become evictable on
        // the very next pick and the eviction loop still terminates
        // (each pick shrinks the resident set). The highest rank
        // evicts first, the VictimPolicy score breaking rank ties and
        // the most recently (re)admitted breaking score ties (running
        // order ends with the youngest), which makes LifoYoungest
        // exactly a constant score.
        Request *victim = nullptr;
        double victim_rank = 0.0, victim_score = 0.0;
        for (RequestId id : pool_.runningIds()) {
            Request &req = pool_.request(id);
            if (req.channel != ch ||
                !outranks(cfg_.policy, demander, req, now_))
                continue;
            std::int64_t evictable = kv_.evictablePagesOf(req.id);
            if (evictable <= 0 && kv_.sharedPagesOf(req.id) <= 0)
                continue;
            double r = rank(cfg_.policy, req, now_);
            double score =
                victimScoreFor(cfg_.preempt.victim, req, evictable);
            if (!victim || r > victim_rank ||
                (r == victim_rank && score >= victim_score)) {
                victim = &req;
                victim_rank = r;
                victim_score = score;
            }
        }
        return victim;
    };

    auto preempt_victim = [&](Request *victim,
                              std::vector<Demand> &channel_demands) {
        drop_work(victim);
        channel_demands.erase(
            std::remove_if(channel_demands.begin(),
                           channel_demands.end(),
                           [victim](const Demand &d) {
                               return d.req == victim;
                           }),
            channel_demands.end());
        loads[victim->channel] -=
            estimator_.estimate(victim->currentSeqLen());
        if (recompute) {
            preemptStats_.pagesFreed += static_cast<std::uint64_t>(
                kv_.evictSequence(victim->id));
        } else {
            Bytes bytes = kv_.swapOut(victim->id);
            out.swapOutBytes += bytes;
            preemptStats_.swapOutBytes += bytes;
        }
        pool_.preempt(victim->id, recompute);
        out.preemptedNow.push_back(victim);
        ++preemptStats_.preemptions;
    };

    for (ChannelId ch = 0; ch < cfg_.channels; ++ch) {
        auto &chd = demands_[ch];
        std::sort(chd.begin(), chd.end(),
                  [this](const Demand &a, const Demand &b) {
                      return outranks(cfg_.policy, *a.req, *b.req,
                                      now_);
                  });
        std::int64_t reserved = 0; // pages granted to earlier ranks
        for (std::size_t i = 0; i < chd.size(); ++i) {
            // Every entry reached here is live: preempt_victim erases
            // a victim's entries, and victims — strictly outranked —
            // sort strictly after the current demander, so erasures
            // never touch positions already consumed (a stalled
            // demander keeps its entry, but it was consumed on its
            // own turn).
            Request *req = chd[i].req;
            std::int64_t need =
                kv_.pagesForAppend(req->id, chd[i].tokens);
            while (need > kv_.freePages(ch) - reserved) {
                Request *victim = pick_victim(ch, *req);
                if (!victim) {
                    drop_work(req); // stall: keep pages, skip a turn
                    need = -1;
                    break;
                }
                preempt_victim(victim, chd);
            }
            if (need >= 0)
                reserved += need;
        }
        reserved_[ch] = reserved;
    }
}

void
BatchScheduler::schedulePrefill(IterationSchedule &out)
{
    // The pressure order (Fcfs: submission age — earlier prompts
    // finish their prefill first, bounding TTFT head-of-line
    // effects). The token budget follows the same order the pressure
    // resolver uses for eviction priority: handing budget to a
    // request that cannot take pages from the residents outranking it
    // would deadlock the two orders against each other (DESIGN.md
    // §8.1). Being a strict total order, it ranks the prefilling
    // requests alone exactly as it would rank them within the whole
    // running set, so only they are sorted.
    prefilling_.clear();
    for (Request *req : running_) {
        if (req->prefilling())
            prefilling_.push_back(req);
    }
    std::sort(prefilling_.begin(), prefilling_.end(),
              [this](const Request *a, const Request *b) {
                  return outranks(cfg_.policy, *a, *b, now_);
              });
    int budget = cfg_.prefill.chunkTokens > 0
                     ? cfg_.prefill.chunkTokens
                     : std::numeric_limits<int>::max();
    for (Request *req : prefilling_) {
        if (budget <= 0)
            break;
        int tokens = std::min(req->remainingPrefill(), budget);
        NEUPIMS_ASSERT(tokens >= 1);
        out.prefill.push_back(
            PrefillSlice{req, req->prefilledTokens, tokens});
        budget -= tokens;
    }
}

void
BatchScheduler::applyFaults(IterationSchedule &out)
{
    if (!fault_ || !fault_->enabled())
        return;
    FaultModel::Transitions tr = fault_->advanceTo(now_);
    for (ChannelId ch : tr.restored)
        kv_.setChannelOnline(ch, true);
    for (ChannelId ch : tr.brownedOut) {
        kv_.setChannelOnline(ch, false);
        ++preemptStats_.brownouts;
    }
    for (ChannelId ch : tr.failed) {
        // Force-preempt every resident of the failed channel in
        // recompute mode — its KV pages are gone, so the restore
        // rebuilds the sequence through chunked prefill on a
        // surviving channel in the policy's restore order.
        for (Request *req : pool_.runningRequests()) {
            if (req->channel != ch)
                continue;
            preemptStats_.pagesFreed += static_cast<std::uint64_t>(
                kv_.evictSequence(req->id));
            pool_.preempt(req->id, /*recompute=*/true);
            out.preemptedNow.push_back(req);
            out.faultPreemptedNow.push_back(req);
            ++preemptStats_.preemptions;
            ++preemptStats_.faultPreemptions;
        }
        preemptStats_.kvPagesLost += static_cast<std::uint64_t>(
            kv_.failChannel(ch));
        ++preemptStats_.channelsFailed;
    }
}

void
BatchScheduler::shedOverload(IterationSchedule &out)
{
    if (!cfg_.shed.enabled() || pool_.waitingCount() == 0)
        return;
    auto tripped = [this]() -> bool {
        if (pool_.waitingCount() == 0)
            return false;
        if (cfg_.shed.maxWaitCycles > 0) {
            // waiting_ is arrival-ordered: the head waited longest.
            const Request &oldest =
                pool_.request(pool_.waitingHead());
            if (now_ - oldest.arrivalCycle > cfg_.shed.maxWaitCycles)
                return true;
        }
        if (cfg_.shed.kvHeadroom > 0.0) {
            std::int64_t capacity = kv_.liveCapacityPages();
            std::int64_t free_total = 0;
            for (ChannelId ch = 0; ch < cfg_.channels; ++ch)
                free_total += kv_.freePages(ch);
            if (capacity > 0 &&
                static_cast<double>(free_total) <
                    cfg_.shed.kvHeadroom *
                        static_cast<double>(capacity))
                return true;
        }
        return false;
    };
    // Bounded per boundary so overload degrades smoothly: at most a
    // quarter of the queue (at least one) sheds per iteration.
    int cap = static_cast<int>(
        std::max<std::size_t>(1, pool_.waitingCount() / 4));
    while (cap-- > 0 && tripped()) {
        // Shed the last highest rank: ties toward the youngest
        // arrival, so Fcfs is exact drop-tail and class-aware
        // policies shed their lowest effective class.
        RequestId victim = kInvalidId;
        double worst = 0.0;
        for (RequestId id : pool_.waitingIds()) {
            double r = rank(cfg_.policy, pool_.request(id), now_);
            if (victim == kInvalidId || r >= worst) {
                victim = id;
                worst = r;
            }
        }
        pool_.abandon(victim, RequestStatus::Shed);
        out.shedNow.push_back(victim);
    }
}

const IterationSchedule &
BatchScheduler::scheduleIteration(Cycle now)
{
    now_ = now;
    IterationSchedule &out = schedule_;
    clearSchedule(out);
    const bool preempting = cfg_.preempt.enabled();
    if (cfg_.preempt.mode == PreemptMode::Swap)
        out.swapBytesPerCycle = cfg_.preempt.swapBytesPerCycle();

    // Fault transitions and load shedding happen first: a freshly
    // failed channel's residents leave the running set before loads
    // are computed, and shed requests leave the waiting queue before
    // admission considers them. Both are no-ops when disabled.
    applyFaults(out);
    shedOverload(out);

    // This boundary's running set. Residents of browned-out channels
    // keep their pages but sit out the iteration — no decode append,
    // no prefill slice, no load contribution — until the window ends.
    const bool brownout =
        fault_ && fault_->enabled() && fault_->offlineCount() > 0;
    running_.clear();
    for (RequestId id : pool_.runningIds()) {
        Request &req = pool_.request(id);
        if (!brownout || kv_.channelOnline(req.channel))
            running_.push_back(&req);
    }
    // Current channel loads from the already-running batch. Requests
    // still in prefill count with their eventual prompt-length load:
    // placement happened at admission, and Algorithm 2 balances the
    // decode MHA they are about to contribute.
    std::vector<double> &loads = out.channelLoads;
    loads.assign(static_cast<std::size_t>(cfg_.channels), 0.0);
    for (Request *req : running_) {
        NEUPIMS_ASSERT(req->channel >= 0);
        loads[req->channel] +=
            estimator_.estimate(req->currentSeqLen());
    }

    // Iteration-level admission: fill the batch while KV room lasts,
    // in rank order (never-fitting picks are
    // rejected as they surface, not just once per boundary — a
    // fitting pick may hide one). Unrestored evictees hold admission
    // priority — fresh admissions would only churn straight back out
    // under the same pressure.
    while (pool_.preemptedCount() == 0 &&
           pool_.runningCount() < static_cast<std::size_t>(
                                      cfg_.maxBatch) &&
           pool_.waitingCount() > 0) {
        RequestId pick = nextAdmission(out);
        if (pick == kInvalidId)
            break;
        pool_.admitId(pick);
        Request &req = pool_.request(pick);
        ChannelId ch = pickChannel(req, loads);
        if (ch == kInvalidId) {
            // No channel can host this request's KV: put it back in
            // the waiting queue (at its arrival-ordered position)
            // and stop admitting; the policy re-picks next boundary.
            // Under Fcfs this preserves FIFO order exactly.
            pool_.requeue(pick);
            out.admissionBlockedBy = pick;
            break;
        }
        req.channel = ch;
        if (lazyKvAlloc()) {
            // The bind walks the prefix index: whole pages matching
            // the prompt are taken by reference and prefill starts at
            // the first uncached token (zero compute for the hit).
            int cached =
                kv_.bindSequence(req.id, ch, req.promptTokens);
            if (cached > 0)
                req.skipCachedPrefix(cached);
        } else {
            int cached = 0;
            bool ok = kv_.allocateSequence(req.id, ch,
                                           req.currentSeqLen(),
                                           req.promptTokens, cached);
            NEUPIMS_ASSERT(ok, "KV allocation raced admission check");
            if (cached > 0)
                req.skipCachedPrefix(cached);
        }
        loads[ch] += estimator_.estimate(req.currentSeqLen());
        running_.push_back(&req);
        ++out.admitted;
    }

    schedulePrefill(out);
    // Without piggybacking, a pending prompt pass owns the iteration:
    // decode stalls until the prefill queue drains.
    if (cfg_.prefill.piggyback || out.prefill.empty()) {
        for (Request *req : running_) {
            if (req->decoding())
                out.batch.push_back(req);
        }
    }

    if (preempting) {
        resolveMemoryPressure(out, loads);
        restorePreempted(out, loads);
    }

    if (fault_ && fault_->enabled() && fault_->anySlowdown(now_)) {
        out.channelSlowdowns.assign(
            static_cast<std::size_t>(cfg_.channels), 1.0);
        for (ChannelId ch = 0; ch < cfg_.channels; ++ch)
            out.channelSlowdowns[ch] = fault_->slowdown(ch, now_);
    }
    return out;
}

int
BatchScheduler::completeIteration(const IterationSchedule &schedule)
{
    const bool lazy = lazyKvAlloc();
    for (const PrefillSlice &slice : schedule.prefill) {
        slice.req->advancePrefill(slice.tokens);
        if (lazy) {
            // Chunk-granular reservation; resolveMemoryPressure
            // guaranteed the pages at the boundary.
            bool ok = kv_.appendTokens(slice.req->id, slice.tokens);
            NEUPIMS_ASSERT(ok, "prefill KV reservation raced the "
                               "pressure check on request ",
                           slice.req->id);
        }
    }
    for (Request *req : schedule.batch) {
        if (!kv_.appendToken(req->id)) {
            NEUPIMS_ASSERT(!cfg_.preempt.enabled(),
                           "decode KV append raced the pressure "
                           "check on request ",
                           req->id);
            // Decoding on would price a KV cache larger than the
            // device: capacity is a hard limit.
            fatal("KV channel ", req->channel, " out of pages for request ",
                  req->id, "'s decode token with preemption off; run with "
                  "--preempt recompute (or swap), or give the KV cache "
                  "more capacity");
        }
    }
    auto retired = pool_.advanceRequests(schedule.batch);
    for (RequestId id : retired)
        kv_.freeSequence(id);
    return static_cast<int>(retired.size());
}

} // namespace neupims::runtime
