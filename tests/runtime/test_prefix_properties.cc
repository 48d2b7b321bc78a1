/**
 * @file
 * Property-based tests of refcounted shared-prefix KV caching under
 * the full serving engine (DESIGN.md §13), with session-style
 * conversational prompts (nested per-session prefixes over a shared
 * system-prompt group):
 *
 *  - refcount conservation at every priced iteration: on each live
 *    channel, truly-free pages plus private resident pages plus
 *    prefix-index pages exactly equal the channel's capacity — a
 *    leaked or double-freed shared page breaks the balance the
 *    moment it happens, across preempt/evict/restore/timeout/fault
 *    in any interleaving;
 *  - eviction frees only the unshared suffix, under all three victim
 *    policies and both preemption modes: a victim's shared pages
 *    survive as long as another sequence (or the cached index)
 *    holds them, and the drained device is whole again with every
 *    index page cached;
 *  - failed channels drop their cached prefix pages exactly once:
 *    the per-failure capacity loss equals one channel regardless of
 *    how many of its pages were shared;
 *  - timed-out and shed requests release their shared references
 *    exactly once (terminal-state census stays balanced while the
 *    page balance holds).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/serving_setup.h"
#include "runtime/serving_engine.h"
#include "runtime/traffic.h"

namespace neupims::runtime {
namespace {

struct PrefixTrial
{
    int channels;
    int pagesPerChannel;
    int requests;
    int sessions;
    Cycle interArrival;
    PreemptMode mode;
    VictimPolicy victim;
    FaultModelConfig fault;
    ClientRetryConfig client;
    ShedConfig shed;
    Cycle clientTimeout = 0; ///< 0 = patient clients
};

ServingConfig
configFor(const PrefixTrial &t)
{
    ServingConfig cfg;
    cfg.kv.channels = t.channels;
    cfg.kv.tokensPerPage = 16;
    cfg.kv.bytesPerTokenPerLayer = 1024;
    cfg.kv.layers = 1;
    cfg.kv.bytesPerChannel =
        cfg.kv.pageBytes() * static_cast<Bytes>(t.pagesPerChannel);
    cfg.kv.prefixSharing = true;
    cfg.scheduler.channels = t.channels;
    cfg.scheduler.maxBatch = 32;
    cfg.scheduler.minLoadPacking = true;
    cfg.scheduler.prefill.chunkTokens = 64;
    cfg.scheduler.prefill.piggyback = true;
    cfg.scheduler.preempt.mode = t.mode;
    cfg.scheduler.preempt.victim = t.victim;
    cfg.scheduler.preempt.swapGBps = 16.0;
    cfg.scheduler.shed = t.shed;
    cfg.fault = t.fault;
    cfg.client = t.client;
    cfg.maxCycles = static_cast<Cycle>(4'000'000'000ULL);
    return cfg;
}

/**
 * Deterministic latency model that re-checks the prefix page balance
 * on every priced iteration: free + resident-private + index ==
 * capacity per live channel, and failed channels hold nothing.
 */
class PrefixInvariantModel : public IterationLatencyModel
{
  public:
    PrefixInvariantModel(Cycle base, Cycle per_request)
        : name_("prefix-invariant"), base_(base),
          perRequest_(per_request)
    {}

    void
    attach(const PagedKvCache *kv, const RequestPool *pool,
           const FaultModel *fault)
    {
        kv_ = kv;
        pool_ = pool;
        fault_ = fault;
    }

    const std::string &name() const override { return name_; }

    Cycle
    iterationCycles(const IterationSchedule &schedule) override
    {
        checkBalance();
        return base_ + perRequest_ *
                           static_cast<Cycle>(
                               schedule.batchSize() +
                               static_cast<int>(
                                   schedule.prefill.size()));
    }

    void
    checkBalance() const
    {
        if (!kv_ || !pool_)
            return;
        const std::int64_t cap = kv_->config().pagesPerChannel();
        const RequestId total = static_cast<RequestId>(
            pool_->pendingCount() + pool_->waitingCount() +
            pool_->runningCount() + pool_->preemptedCount() +
            pool_->completedCount() + pool_->droppedCount() +
            pool_->timedOutCount() + pool_->shedCount());
        std::vector<std::int64_t> resident(
            static_cast<std::size_t>(kv_->config().channels), 0);
        for (RequestId id = 0; id < total; ++id) {
            ChannelId ch = kv_->channelOf(id);
            if (ch != kInvalidId && !kv_->isSwappedOut(id))
                resident[static_cast<std::size_t>(ch)] +=
                    kv_->pagesOf(id);
        }
        for (ChannelId ch = 0; ch < kv_->config().channels; ++ch) {
            if (fault_ && fault_->failed(ch)) {
                EXPECT_EQ(kv_->freePages(ch), 0);
                EXPECT_EQ(kv_->indexPages(ch), 0);
                continue;
            }
            EXPECT_GE(kv_->freePages(ch) - kv_->cachedPages(ch), 0);
            EXPECT_EQ((kv_->freePages(ch) - kv_->cachedPages(ch)) +
                          resident[static_cast<std::size_t>(ch)] +
                          kv_->indexPages(ch),
                      cap)
                << "prefix page balance broken on channel " << ch;
        }
    }

  private:
    std::string name_;
    Cycle base_;
    Cycle perRequest_;
    const PagedKvCache *kv_ = nullptr;
    const RequestPool *pool_ = nullptr;
    const FaultModel *fault_ = nullptr;
};

/**
 * Conversational arrivals: requests round-robin over a handful of
 * sessions, every session's turn extends its previous prompt
 * (nested prefixes), and all sessions open with the same
 * 32-token system prompt (prefix group 0) — so the trials exercise
 * whole-page hits, partial-view binds and COW together.
 */
std::vector<ArrivalEvent>
arrivalsFor(Rng &rng, const PrefixTrial &t)
{
    std::vector<ArrivalEvent> events;
    int max_tokens = t.pagesPerChannel * 16;
    std::vector<int> turn(static_cast<std::size_t>(t.sessions), 0);
    Cycle when = 0;
    for (int i = 0; i < t.requests; ++i) {
        int s = i % t.sessions;
        ArrivalEvent ev;
        ev.time = when;
        ev.inputLength = std::min(
            24 + 8 * s + 16 * turn[static_cast<std::size_t>(s)],
            max_tokens / 2);
        ev.outputLength = static_cast<int>(rng.uniformInt(
            1, static_cast<std::uint64_t>(std::max(
                   1, max_tokens / 2 - ev.inputLength / 2))));
        ev.sessionId = s;
        ev.prefixGroup = 0;
        ev.promptTokens =
            synthesizePrompt(s, 0, 32, ev.inputLength);
        events.push_back(ev);
        ++turn[static_cast<std::size_t>(s)];
        when += rng.uniformInt(1, t.interArrival);
    }
    return events;
}

const ServingReport
runTrial(std::uint64_t seed, const PrefixTrial &t,
         PrefixShareStats &stats_out, std::uint64_t &preempted_out)
{
    Rng rng(seed * 613 + 11);
    auto events = arrivalsFor(rng, t);
    ReplayTraffic traffic("replay", events);
    if (t.clientTimeout > 0)
        traffic.setClientTimeout(t.clientTimeout);
    PrefixInvariantModel latency(2000, 25);
    ServingEngine engine(configFor(t), traffic, latency);
    latency.attach(&engine.kv(), &engine.pool(), &engine.fault());
    auto report = engine.run();

    EXPECT_FALSE(report.hitSafetyStop) << "seed " << seed;
    EXPECT_TRUE(engine.pool().conservationHolds()) << "seed " << seed;
    EXPECT_EQ(report.requestsInFlight, 0) << "seed " << seed;
    EXPECT_EQ(report.requestsSubmitted,
              report.requestsCompleted + report.requestsDropped +
                  report.requestsTimedOut + report.requestsShed)
        << "seed " << seed;

    // Drained device: every surviving channel whole again, every
    // index page cached (all references released exactly once),
    // host tier empty.
    const auto &kv = engine.kv();
    std::int64_t free_total = 0;
    for (ChannelId ch = 0; ch < t.channels; ++ch) {
        EXPECT_EQ(kv.usedPages(ch), 0) << "seed " << seed;
        EXPECT_EQ(kv.cachedPages(ch), kv.indexPages(ch))
            << "unreleased shared reference, seed " << seed;
        if (!engine.fault().failed(ch))
            free_total += kv.freePages(ch);
    }
    EXPECT_EQ(free_total, kv.liveCapacityPages()) << "seed " << seed;
    EXPECT_EQ(kv.hostPagesUsed(), 0) << "seed " << seed;

    // Each channel failure lost exactly one channel's capacity —
    // cached/shared prefix pages dropped once, not twice.
    EXPECT_EQ(report.kvPagesLost,
              static_cast<std::uint64_t>(report.channelsFailed) *
                  static_cast<std::uint64_t>(t.pagesPerChannel))
        << "seed " << seed;

    stats_out = kv.prefixStats();
    preempted_out = report.preemptions;
    return report;
}

PrefixTrial
baseTrial(PreemptMode mode, VictimPolicy victim)
{
    PrefixTrial t;
    t.channels = 3;
    // Tight capacity so preemption pressure is the common case.
    t.pagesPerChannel = 24;
    t.requests = 36;
    t.sessions = 4;
    t.interArrival = 60'000;
    t.mode = mode;
    t.victim = victim;
    return t;
}

TEST(PrefixProperties, RefcountConservationUnderRecomputeAndSwap)
{
    for (PreemptMode mode :
         {PreemptMode::Recompute, PreemptMode::Swap}) {
        std::uint64_t hits = 0;
        std::uint64_t preemptions = 0;
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            PrefixTrial t =
                baseTrial(mode, VictimPolicy::LifoYoungest);
            PrefixShareStats st;
            std::uint64_t pre = 0;
            auto report = runTrial(seed, t, st, pre);
            EXPECT_EQ(report.requestsCompleted,
                      report.requestsSubmitted)
                << "seed " << seed;
            EXPECT_GT(st.admissions, 0u);
            hits += st.hits;
            preemptions += pre;
        }
        // The trials must actually share and actually preempt, or
        // the invariants were never stressed.
        EXPECT_GT(hits, 0u) << preemptModeName(mode);
        EXPECT_GT(preemptions, 0u) << preemptModeName(mode);
    }
}

TEST(PrefixProperties, EvictionFreesOnlyUnsharedSuffixAllPolicies)
{
    for (PreemptMode mode :
         {PreemptMode::Recompute, PreemptMode::Swap}) {
        for (VictimPolicy victim :
             {VictimPolicy::LifoYoungest, VictimPolicy::FewestPages,
              VictimPolicy::LongestRemaining}) {
            std::uint64_t hits = 0;
            std::uint64_t preemptions = 0;
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                PrefixTrial t = baseTrial(mode, victim);
                PrefixShareStats st;
                std::uint64_t pre = 0;
                auto report = runTrial(seed + 40, t, st, pre);
                EXPECT_EQ(report.requestsCompleted,
                          report.requestsSubmitted)
                    << "seed " << seed;
                hits += st.hits;
                preemptions += pre;
            }
            EXPECT_GT(hits, 0u) << victimPolicyName(victim);
            EXPECT_GT(preemptions, 0u) << victimPolicyName(victim);
        }
    }
}

TEST(PrefixProperties, SharedPagesSurviveFaultsTimeoutsAndShedding)
{
    int failures = 0;
    std::uint64_t hits = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed * 401 + 3);
        PrefixTrial t = baseTrial(rng.uniform() < 0.5
                                      ? PreemptMode::Recompute
                                      : PreemptMode::Swap,
                                  VictimPolicy::LifoYoungest);
        t.channels = 4;
        t.pagesPerChannel = 32;

        FaultEvent ev;
        ev.kind = FaultKind::ChannelFail;
        ev.channel = 0;
        ev.start = rng.uniformInt(200'000, 1'500'000);
        t.fault.events.push_back(ev);
        t.fault.seed = rng.next();

        if (rng.uniform() < 0.5) {
            t.clientTimeout = rng.uniformInt(1'500'000, 6'000'000);
            t.client.maxRetries =
                static_cast<int>(rng.uniformInt(0, 2));
            t.client.backoffCycles = rng.uniformInt(50'000, 200'000);
            t.client.seed = rng.next();
        }
        if (rng.uniform() < 0.4) {
            t.shed.kvHeadroom = 0.02 + rng.uniform() * 0.08;
            t.shed.maxWaitCycles = rng.uniformInt(400'000, 1'200'000);
        }

        PrefixShareStats st;
        std::uint64_t pre = 0;
        auto report = runTrial(seed + 80, t, st, pre);
        failures += report.channelsFailed;
        hits += st.hits;
    }
    // The schedule must actually kill channels and actually share.
    EXPECT_GT(failures, 0);
    EXPECT_GT(hits, 0u);
}

} // namespace
} // namespace neupims::runtime
