/**
 * @file
 * Property-based tests of the fault-injection and graceful-degradation
 * layer under randomized fault schedules (deterministic seeds), driven
 * through the full ServingEngine (faults, timeouts, retries and
 * shedding all live across the scheduler/engine boundary):
 *
 *  - no KV page leaks across channel failure -> force-preempt ->
 *    re-dispatch: once a run drains, every *surviving* device page is
 *    free again, failed channels hold nothing, and the host tier is
 *    empty;
 *  - surviving-channel page totals never exceed capacity at any
 *    iteration (checked inside the latency model, which the engine
 *    calls every priced iteration);
 *  - terminal-state conservation: every submitted request (retries
 *    included) lands in exactly one of completed / dropped /
 *    timed-out / shed, and the pool census balances;
 *  - token conservation on retried requests: a completed attempt
 *    generated exactly its output length; abandoned attempts' partial
 *    tokens are all accounted as wasted work; retry chains are
 *    walkable and type-stable;
 *  - same-seed reproducibility of a faulted run, and the acceptance
 *    scenario (mid-run channel failure at 1.5x load) completing
 *    >= 95% with nonzero recovery/goodput metrics.
 *
 * FaultModel unit coverage (spec grammar, transition ordering,
 * straggler pricing) rides along at the bottom.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/serving_setup.h"
#include "runtime/serving_engine.h"
#include "runtime/traffic.h"

namespace neupims::runtime {
namespace {

/**
 * Deterministic latency (base + perRequest x participants) that also
 * asserts per-iteration KV invariants: an online channel never holds
 * more pages than its capacity, and a failed channel holds nothing.
 */
class InvariantLatencyModel : public IterationLatencyModel
{
  public:
    InvariantLatencyModel(Cycle base, Cycle per_request)
        : name_("invariant"), base_(base), perRequest_(per_request)
    {}

    void
    attach(const PagedKvCache *kv, const FaultModel *fault)
    {
        kv_ = kv;
        fault_ = fault;
    }

    const std::string &name() const override { return name_; }

    Cycle
    iterationCycles(const IterationSchedule &schedule) override
    {
        if (kv_) {
            std::int64_t cap = kv_->config().pagesPerChannel();
            for (ChannelId ch = 0; ch < kv_->config().channels;
                 ++ch) {
                if (kv_->channelOnline(ch)) {
                    EXPECT_LE(kv_->usedPages(ch), cap);
                    EXPECT_GE(kv_->freePages(ch), 0);
                } else if (fault_ && fault_->failed(ch)) {
                    EXPECT_EQ(kv_->usedPages(ch), 0);
                    EXPECT_EQ(kv_->freePages(ch), 0);
                }
            }
        }
        // Straggler windows only ever inflate the iteration.
        EXPECT_GE(schedule.stragglerInflation(), 1.0);
        Cycle cycles =
            base_ + perRequest_ * static_cast<Cycle>(
                                      schedule.batchSize() +
                                      static_cast<int>(
                                          schedule.prefill.size()));
        double factor = schedule.stragglerInflation();
        if (factor > 1.0)
            cycles = static_cast<Cycle>(
                static_cast<double>(cycles) * factor);
        return cycles;
    }

  private:
    std::string name_;
    Cycle base_;
    Cycle perRequest_;
    const PagedKvCache *kv_ = nullptr;
    const FaultModel *fault_ = nullptr;
};

struct FaultTrial
{
    int channels;
    int pagesPerChannel;
    int requests;
    Cycle interArrival;
    FaultModelConfig fault;
    ClientRetryConfig client;
    ShedConfig shed;
    Cycle clientTimeout; ///< 0 = patient clients
    PreemptMode mode;
};

Cycle
enabledHorizon()
{
    return static_cast<Cycle>(4'000'000'000ULL);
}

ServingConfig
configFor(const FaultTrial &t)
{
    ServingConfig cfg;
    cfg.kv.channels = t.channels;
    cfg.kv.tokensPerPage = 16;
    cfg.kv.bytesPerTokenPerLayer = 1024;
    cfg.kv.layers = 1;
    cfg.kv.bytesPerChannel =
        cfg.kv.pageBytes() * static_cast<Bytes>(t.pagesPerChannel);
    cfg.scheduler.channels = t.channels;
    cfg.scheduler.maxBatch = 32;
    cfg.scheduler.minLoadPacking = true;
    cfg.scheduler.prefill.chunkTokens = 64;
    cfg.scheduler.prefill.piggyback = true;
    cfg.scheduler.preempt.mode = t.mode;
    cfg.scheduler.preempt.swapGBps = 16.0;
    cfg.scheduler.shed = t.shed;
    cfg.fault = t.fault;
    cfg.client = t.client;
    // Safety horizon far beyond any drained run; a trial that trips
    // it fails the conservation expectations below.
    cfg.maxCycles = enabledHorizon();
    return cfg;
}

FaultTrial
randomTrial(Rng &rng)
{
    FaultTrial t;
    t.channels = static_cast<int>(rng.uniformInt(3, 6));
    t.pagesPerChannel = static_cast<int>(rng.uniformInt(24, 48));
    t.requests = static_cast<int>(rng.uniformInt(24, 60));
    t.interArrival = rng.uniformInt(20'000, 120'000);
    t.mode = rng.uniform() < 0.5 ? PreemptMode::Recompute
                                 : PreemptMode::Swap;

    // 1-2 fault events; never fail every channel (all-channels-lost
    // is a documented fatal, not a recoverable scenario).
    int n_events = static_cast<int>(rng.uniformInt(1, 2));
    int fails = 0;
    for (int i = 0; i < n_events; ++i) {
        FaultEvent ev;
        ev.start = rng.uniformInt(100'000, 2'000'000);
        switch (rng.uniformInt(0, 2)) {
        case 0:
            if (fails + 1 < t.channels) {
                ev.kind = FaultKind::ChannelFail;
                // Distinct explicit channels so two events never
                // race on the same one.
                ev.channel = fails;
                ++fails;
                break;
            }
            [[fallthrough]];
        case 1:
            ev.kind = FaultKind::Brownout;
            ev.channel = static_cast<ChannelId>(
                rng.uniformInt(0, static_cast<std::uint64_t>(
                                      t.channels - 1)));
            ev.duration = rng.uniformInt(50'000, 400'000);
            break;
        default:
            ev.kind = FaultKind::Straggler;
            ev.channel = kInvalidId; // random pick, seeded stream
            ev.duration = rng.uniformInt(100'000, 600'000);
            ev.factor = 1.5 + rng.uniform() * 2.0;
            break;
        }
        t.fault.events.push_back(ev);
    }
    t.fault.seed = rng.next();

    // Half the trials run impatient clients with retries; some also
    // arm the shedding gate.
    if (rng.uniform() < 0.5) {
        t.clientTimeout = rng.uniformInt(1'000'000, 6'000'000);
        t.client.maxRetries = static_cast<int>(rng.uniformInt(0, 2));
        t.client.backoffCycles = rng.uniformInt(50'000, 200'000);
        t.client.seed = rng.next();
    } else {
        t.clientTimeout = 0;
    }
    if (rng.uniform() < 0.4) {
        t.shed.kvHeadroom = 0.02 + rng.uniform() * 0.08;
        t.shed.maxWaitCycles = rng.uniformInt(300'000, 1'200'000);
    }
    return t;
}

/** Arrival trace where every request individually fits a channel. */
std::vector<ArrivalEvent>
arrivalsFor(Rng &rng, const FaultTrial &t)
{
    std::vector<ArrivalEvent> events;
    int max_tokens = t.pagesPerChannel * 16;
    Cycle when = 0;
    for (int i = 0; i < t.requests; ++i) {
        ArrivalEvent ev;
        ev.time = when;
        ev.inputLength = static_cast<int>(rng.uniformInt(
            1, static_cast<std::uint64_t>(max_tokens / 2)));
        ev.outputLength = static_cast<int>(rng.uniformInt(
            1, static_cast<std::uint64_t>(std::max(
                   1, max_tokens - ev.inputLength - 1))));
        events.push_back(ev);
        when += rng.uniformInt(1, t.interArrival);
    }
    return events;
}

int
runTrial(std::uint64_t seed)
{
    Rng rng(seed * 977 + 31);
    FaultTrial t = randomTrial(rng);
    auto events = arrivalsFor(rng, t);

    ReplayTraffic traffic("replay", events);
    if (t.clientTimeout > 0)
        traffic.setClientTimeout(t.clientTimeout);
    InvariantLatencyModel latency(2000, 25);
    ServingEngine engine(configFor(t), traffic, latency);
    latency.attach(&engine.kv(), &engine.fault());
    auto report = engine.run();

    EXPECT_FALSE(report.hitSafetyStop) << "seed " << seed;

    // Terminal-state conservation across every path (retries widen
    // requestsSubmitted beyond the original trace).
    EXPECT_TRUE(engine.pool().conservationHolds()) << "seed " << seed;
    EXPECT_EQ(report.requestsInFlight, 0) << "seed " << seed;
    EXPECT_EQ(report.requestsSubmitted,
              report.requestsCompleted + report.requestsDropped +
                  report.requestsTimedOut + report.requestsShed)
        << "seed " << seed;
    EXPECT_GE(report.requestsSubmitted, t.requests) << "seed " << seed;

    // No KV page leaks: surviving channels whole (a channel still in
    // a brownout window at drain keeps its pages), failed channels
    // empty, host tier drained.
    const auto &kv = engine.kv();
    std::int64_t free_total = 0;
    for (ChannelId ch = 0; ch < t.channels; ++ch) {
        EXPECT_EQ(kv.usedPages(ch), 0) << "seed " << seed;
        if (engine.fault().failed(ch))
            EXPECT_EQ(kv.freePages(ch), 0) << "seed " << seed;
        else
            free_total += kv.freePages(ch);
    }
    EXPECT_EQ(free_total, kv.liveCapacityPages()) << "seed " << seed;
    EXPECT_EQ(kv.hostPagesUsed(), 0) << "seed " << seed;
    EXPECT_DOUBLE_EQ(kv.utilization(), 0.0) << "seed " << seed;

    // Per-request token conservation and retry-chain structure.
    std::uint64_t wasted = 0;
    for (RequestId id = 0;
         id < static_cast<RequestId>(report.requestsSubmitted);
         ++id) {
        const Request &req = engine.pool().request(id);
        EXPECT_TRUE(isTerminalStatus(req.status)) << "seed " << seed;
        if (req.status == RequestStatus::Done) {
            EXPECT_EQ(req.generatedTokens, req.outputLength)
                << "seed " << seed;
        }
        if (req.status == RequestStatus::TimedOut)
            wasted += static_cast<std::uint64_t>(req.generatedTokens);
        if (req.status == RequestStatus::Shed) {
            EXPECT_EQ(req.generatedTokens, 0) << "seed " << seed;
        }
        if (req.attempt > 0) {
            EXPECT_NE(req.retryOf, kInvalidId) << "seed " << seed;
            if (req.retryOf == kInvalidId)
                continue;
            const Request &prior = engine.pool().request(req.retryOf);
            EXPECT_EQ(req.attempt, prior.attempt + 1)
                << "seed " << seed;
            EXPECT_TRUE(prior.status == RequestStatus::TimedOut ||
                        prior.status == RequestStatus::Shed)
                << "seed " << seed;
            EXPECT_EQ(req.inputLength, prior.inputLength)
                << "seed " << seed;
            EXPECT_EQ(req.outputLength, prior.outputLength)
                << "seed " << seed;
            EXPECT_GT(req.arrivalCycle, prior.arrivalCycle)
                << "retry must arrive after the prior attempt, seed "
                << seed;
        }
    }
    // Every token generated for an abandoned attempt is accounted as
    // wasted work (timed-out attempts freeze their counts).
    EXPECT_EQ(report.wastedTokens, wasted) << "seed " << seed;

    // Fault accounting: a run can drain before a late event fires,
    // but every failure that DID fire lost exactly one channel's
    // capacity (residents were evicted first, so failChannel() found
    // the channel whole).
    int fail_events = 0;
    for (const auto &ev : t.fault.events)
        fail_events += ev.kind == FaultKind::ChannelFail ? 1 : 0;
    EXPECT_LE(report.channelsFailed, fail_events) << "seed " << seed;
    EXPECT_EQ(report.kvPagesLost,
              static_cast<std::uint64_t>(report.channelsFailed) *
                  static_cast<std::uint64_t>(t.pagesPerChannel))
        << "seed " << seed;
    return report.channelsFailed;
}

TEST(FaultProperties, InvariantsHoldAcrossRandomFaultSchedules)
{
    int total_failures = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed)
        total_failures += runTrial(seed);
    // The seeds must actually exercise channel loss, not just dodge
    // it with late events.
    EXPECT_GT(total_failures, 0);
}

/**
 * The acceptance scenario: a mid-run permanent channel failure at
 * 1.5x the canonical over-capacity load (KV/6, clamped lengths,
 * recompute). The engine must complete >= 95% of requests, leak no
 * KV pages, and report nonzero recovery and goodput metrics —
 * reproducibly across two same-seed runs.
 */
TEST(FaultProperties, MidRunChannelFailureCompletesAndRecovers)
{
    auto run = [](ServingReport &report) {
        auto llm = model::gpt3_13b();
        const auto &backend =
            core::servingBackendByName("NeuPIMs+SBI");
        auto ds = shareGptDataset();
        ds.maxLength = 320;
        auto traffic = makeTraffic("poisson", ds, 270.0, 96, 7);
        auto latency = core::makeIterationModel(backend.device, llm);
        auto cfg = core::servingConfigFor(backend.device, llm);
        core::ServingOptions opt;
        opt.preempt = "recompute";
        opt.kvScale = 6;
        opt.fault = "fail:40";
        opt.faultSeed = 7;
        core::applyServingOptions(cfg, opt);
        ServingEngine engine(cfg, *traffic, *latency);
        report = engine.run();

        const auto &kv = engine.kv();
        std::int64_t free_total = 0;
        for (ChannelId ch = 0; ch < kv.config().channels; ++ch)
            free_total += kv.freePages(ch);
        EXPECT_EQ(free_total, kv.liveCapacityPages());
        EXPECT_EQ(kv.hostPagesUsed(), 0);
        return engine.pool().conservationHolds();
    };

    ServingReport a, b;
    EXPECT_TRUE(run(a));
    EXPECT_TRUE(run(b));

    EXPECT_GE(a.requestsCompleted, (a.requestsSubmitted * 95) / 100);
    EXPECT_EQ(a.channelsFailed, 1);
    EXPECT_GT(a.faultPreemptions, 0u);
    EXPECT_GT(a.kvPagesLost, 0u);
    EXPECT_GT(a.recoveryUs.count(), 0u);
    EXPECT_GT(a.recoveryUs.maxValue(), 0.0);
    EXPECT_GT(a.goodputTokens, 0u);
    EXPECT_GT(a.goodputTokensPerSecond(), 0.0);

    // Same seed, same report — bit-stable availability metrics.
    EXPECT_EQ(a.requestsCompleted, b.requestsCompleted);
    EXPECT_EQ(a.makespanCycles, b.makespanCycles);
    EXPECT_EQ(a.faultPreemptions, b.faultPreemptions);
    EXPECT_EQ(a.goodputTokens, b.goodputTokens);
    EXPECT_DOUBLE_EQ(a.recoveryUs.maxValue(), b.recoveryUs.maxValue());
}

// --- FaultModel unit coverage ----------------------------------------------

TEST(FaultModel, ParsesSpecGrammar)
{
    auto cfg = parseFaultSpecs(
        "fail:40,brownout:30:2:25,straggler:20:-1:80:3.5", 11);
    ASSERT_EQ(cfg.events.size(), 3u);
    EXPECT_EQ(cfg.events[0].kind, FaultKind::ChannelFail);
    EXPECT_EQ(cfg.events[0].start, static_cast<Cycle>(40'000'000));
    EXPECT_EQ(cfg.events[0].channel, kInvalidId); // random pick
    EXPECT_EQ(cfg.events[1].kind, FaultKind::Brownout);
    EXPECT_EQ(cfg.events[1].channel, 2);
    EXPECT_EQ(cfg.events[1].duration,
              static_cast<Cycle>(25'000'000));
    EXPECT_EQ(cfg.events[2].kind, FaultKind::Straggler);
    EXPECT_DOUBLE_EQ(cfg.events[2].factor, 3.5);
    EXPECT_EQ(cfg.seed, 11u);
    EXPECT_TRUE(cfg.enabled());
    EXPECT_FALSE(parseFaultSpecs("", 11).enabled());

    EXPECT_EXIT(parseFaultSpecs("melt:40", 1),
                ::testing::ExitedWithCode(1), "unknown kind");
    EXPECT_EXIT(parseFaultSpecs("fail", 1),
                ::testing::ExitedWithCode(1), "expected");
    EXPECT_EXIT(parseFaultSpecs("straggler:10:0:50:0.5", 1),
                ::testing::ExitedWithCode(1), "factor");
}

TEST(FaultModel, TransitionsFireInOrderAndOnce)
{
    FaultModelConfig cfg;
    FaultEvent fail;
    fail.kind = FaultKind::ChannelFail;
    fail.start = 1000;
    fail.channel = 1;
    FaultEvent brown;
    brown.kind = FaultKind::Brownout;
    brown.start = 500;
    brown.channel = 0;
    brown.duration = 600;
    cfg.events = {fail, brown};
    FaultModel fm(cfg, 3);

    EXPECT_TRUE(fm.online(0));
    EXPECT_EQ(fm.nextTransitionCycle(), 500u);

    auto tr = fm.advanceTo(600);
    ASSERT_EQ(tr.brownedOut.size(), 1u);
    EXPECT_EQ(tr.brownedOut[0], 0);
    EXPECT_FALSE(fm.online(0));
    EXPECT_TRUE(fm.online(1));
    EXPECT_EQ(fm.offlineCount(), 1);
    // Brownout end (1100) is now the next transition after the fail.
    EXPECT_EQ(fm.nextTransitionCycle(), 1000u);

    tr = fm.advanceTo(1200);
    ASSERT_EQ(tr.failed.size(), 1u);
    EXPECT_EQ(tr.failed[0], 1);
    ASSERT_EQ(tr.restored.size(), 1u);
    EXPECT_EQ(tr.restored[0], 0);
    EXPECT_TRUE(fm.online(0));
    EXPECT_FALSE(fm.online(1));
    EXPECT_TRUE(fm.failed(1));
    EXPECT_EQ(fm.nextTransitionCycle(), kCycleMax);

    // Idempotent: no transition fires twice.
    tr = fm.advanceTo(5000);
    EXPECT_FALSE(tr.any());
    // A failed channel never comes back.
    EXPECT_FALSE(fm.online(1));
}

TEST(FaultModel, StragglerWindowInflatesOnlyItsSpan)
{
    FaultModelConfig cfg;
    FaultEvent slow;
    slow.kind = FaultKind::Straggler;
    slow.start = 100;
    slow.channel = 2;
    slow.duration = 400;
    slow.factor = 2.5;
    cfg.events = {slow};
    FaultModel fm(cfg, 4);

    EXPECT_DOUBLE_EQ(fm.slowdown(2, 50), 1.0);
    EXPECT_DOUBLE_EQ(fm.slowdown(2, 100), 2.5);
    EXPECT_DOUBLE_EQ(fm.slowdown(2, 499), 2.5);
    EXPECT_DOUBLE_EQ(fm.slowdown(2, 500), 1.0);
    EXPECT_DOUBLE_EQ(fm.slowdown(1, 200), 1.0);
    EXPECT_TRUE(fm.anySlowdown(200));
    EXPECT_FALSE(fm.anySlowdown(600));
    // Stragglers are priced, not transitioned: advancing past the
    // window fires nothing.
    auto tr = fm.advanceTo(1000);
    EXPECT_FALSE(tr.any());
    EXPECT_EQ(fm.offlineCount(), 0);
}

TEST(FaultModel, RandomChannelPicksAreSeedDeterministic)
{
    FaultModelConfig cfg;
    FaultEvent ev;
    ev.kind = FaultKind::ChannelFail;
    ev.start = 100;
    ev.channel = kInvalidId;
    cfg.events = {ev};
    cfg.seed = 1234;

    FaultModel a(cfg, 8);
    FaultModel b(cfg, 8);
    a.advanceTo(200);
    b.advanceTo(200);
    ASSERT_EQ(a.offlineCount(), 1);
    for (ChannelId ch = 0; ch < 8; ++ch)
        EXPECT_EQ(a.online(ch), b.online(ch));
}

/**
 * Straggler pricing reaches both iteration models through the shared
 * helper: the same schedule costs exactly stragglerInflation() times
 * more with a window active than without.
 */
TEST(FaultProperties, StragglerInflationScalesIterationLatency)
{
    IterationSchedule plain;
    plain.channelLoads = {100.0, 200.0, 150.0};
    EXPECT_DOUBLE_EQ(plain.stragglerInflation(), 1.0);

    IterationSchedule slowed = plain;
    slowed.channelSlowdowns = {1.0, 1.0, 2.0};
    // max load 200 vs slowed 150*2=300 -> 1.5x.
    EXPECT_DOUBLE_EQ(slowed.stragglerInflation(), 1.5);

    // A slowdown on the already-critical channel scales directly.
    IterationSchedule critical = plain;
    critical.channelSlowdowns = {1.0, 3.0, 1.0};
    EXPECT_DOUBLE_EQ(critical.stragglerInflation(), 3.0);

    // Slowing a lightly-loaded channel below the critical path is
    // free.
    IterationSchedule hidden = plain;
    hidden.channelSlowdowns = {1.2, 1.0, 1.0};
    EXPECT_DOUBLE_EQ(hidden.stragglerInflation(), 1.0);

    // Transfer-only schedules (no loads) still pay the worst factor.
    IterationSchedule transfer;
    transfer.channelSlowdowns = {1.0, 2.0};
    EXPECT_DOUBLE_EQ(transfer.stragglerInflation(), 2.0);
}

} // namespace
} // namespace neupims::runtime
