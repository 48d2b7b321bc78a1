/**
 * @file
 * Unit tests of the closed-loop serving engine against a fake
 * iteration-latency model (runtime-only; the analytic and
 * engine-backed models are integration-tested by the golden traces
 * and tests/core): the serving timeline is stamped consistently, the
 * clock fast-forwards across idle gaps, impossible requests are
 * dropped rather than livelocked, safety stops trip, and runs are
 * deterministic.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "runtime/serving_engine.h"

namespace neupims::runtime {
namespace {

/** Deterministic latency: base + perRequest x batch cycles. */
class FakeLatencyModel : public IterationLatencyModel
{
  public:
    explicit FakeLatencyModel(Cycle base = 1000, Cycle per_request = 10)
        : name_("fake"), base_(base), perRequest_(per_request)
    {}

    const std::string &name() const override { return name_; }

    Cycle
    iterationCycles(const IterationSchedule &schedule) override
    {
        return base_ + perRequest_ * static_cast<Cycle>(
                                         schedule.batchSize());
    }

  private:
    std::string name_;
    Cycle base_;
    Cycle perRequest_;
};

/** Content-less arrival with the policy/prefix fields defaulted. */
ArrivalEvent
arrival(Cycle time, int input_length, int output_length)
{
    ArrivalEvent ev;
    ev.time = time;
    ev.inputLength = input_length;
    ev.outputLength = output_length;
    return ev;
}

ServingConfig
smallConfig(int pages_per_channel = 1000, int max_batch = 32)
{
    ServingConfig cfg;
    cfg.kv.channels = 4;
    cfg.kv.tokensPerPage = 16;
    cfg.kv.bytesPerTokenPerLayer = 1024;
    cfg.kv.layers = 1;
    cfg.kv.bytesPerChannel =
        cfg.kv.pageBytes() * static_cast<Bytes>(pages_per_channel);
    cfg.scheduler.channels = 4;
    cfg.scheduler.maxBatch = max_batch;
    cfg.scheduler.minLoadPacking = true;
    return cfg;
}

TEST(ServingEngine, ServesEveryRequestAndStampsTheTimeline)
{
    std::vector<ArrivalEvent> events;
    for (int i = 0; i < 20; ++i)
        events.push_back(
            arrival(static_cast<Cycle>(i) * 500, 8 + i % 5, 1 + i % 4));
    ReplayTraffic traffic("replay", events);
    FakeLatencyModel latency;
    ServingEngine engine(smallConfig(), traffic, latency);
    auto report = engine.run();

    EXPECT_EQ(report.requestsSubmitted, 20);
    EXPECT_EQ(report.requestsCompleted, 20);
    EXPECT_EQ(report.requestsDropped, 0);
    EXPECT_FALSE(report.hitSafetyStop);
    EXPECT_EQ(report.ttftUs.count(), 20u);
    EXPECT_EQ(report.e2eUs.count(), 20u);
    EXPECT_GT(report.tokensPerSecond(), 0.0);

    for (RequestId id = 0; id < 20; ++id) {
        const Request &req = engine.pool().request(id);
        EXPECT_EQ(req.status, RequestStatus::Done);
        EXPECT_LE(req.arrivalCycle, req.admitCycle);
        EXPECT_LT(req.admitCycle, req.firstTokenCycle);
        EXPECT_LE(req.firstTokenCycle, req.finishCycle);
        // One token per iteration: the generation span covers
        // outputLength iterations of at least the base latency.
        EXPECT_GE(req.finishCycle - req.admitCycle,
                  static_cast<Cycle>(req.outputLength) * 1000u);
        EXPECT_LE(req.finishCycle, report.makespanCycles);
    }
}

TEST(ServingEngine, TraceRowsAreMonotoneAndConsistent)
{
    ReplayTraffic traffic("replay", {arrival(0, 10, 3),
                                     arrival(100, 12, 2),
                                     arrival(5000, 9, 4)});
    FakeLatencyModel latency;
    ServingEngine engine(smallConfig(), traffic, latency);
    auto report = engine.run();
    (void)report;

    const auto &trace = engine.trace();
    ASSERT_FALSE(trace.empty());
    Cycle prev_end = 0;
    int total_retired = 0;
    for (const auto &row : trace) {
        EXPECT_GE(row.startCycle, prev_end);
        EXPECT_GT(row.iterationCycles, 0u);
        // Every iteration carries work: decode tokens, prefill
        // slices, or both.
        EXPECT_GT(row.batch + row.prefilling, 0);
        EXPECT_EQ(row.prefilling > 0, row.prefillTokens > 0);
        prev_end = row.startCycle + row.iterationCycles;
        total_retired += row.retired;
    }
    EXPECT_EQ(total_retired, 3);
    // The first iteration admits the first arrival into prefill: no
    // request can decode before its prompt pass.
    EXPECT_EQ(trace.front().batch, 0);
    EXPECT_GT(trace.front().prefilling, 0);
}

TEST(ServingEngine, FastForwardsAcrossIdleGaps)
{
    // Two requests separated by a gap far longer than their service.
    ReplayTraffic traffic(
        "replay", {arrival(0, 4, 1), arrival(10'000'000, 4, 1)});
    FakeLatencyModel latency;
    ServingEngine engine(smallConfig(), traffic, latency);
    auto report = engine.run();

    EXPECT_EQ(report.requestsCompleted, 2);
    // The engine must jump the clock to the second arrival, not spin:
    // each request takes one prefill and one decode iteration.
    EXPECT_EQ(report.iterations, 4);
    EXPECT_GE(report.makespanCycles, 10'000'000u);
    const Request &second = engine.pool().request(1);
    EXPECT_EQ(second.admitCycle, 10'000'000u);
}

TEST(ServingEngine, DropsRequestsThatCanNeverFit)
{
    // Channel capacity is 4 pages x 16 tokens; a 200-token prompt can
    // never be admitted and must be rejected, not livelocked on.
    ReplayTraffic traffic("replay", {arrival(0, 200, 3),
                                     arrival(10, 8, 2),
                                     arrival(20, 8, 2)});
    FakeLatencyModel latency;
    ServingEngine engine(smallConfig(4), traffic, latency);
    auto report = engine.run();

    EXPECT_EQ(report.requestsDropped, 1);
    EXPECT_EQ(report.requestsCompleted, 2);
    EXPECT_EQ(engine.pool().request(0).status, RequestStatus::Dropped);
    EXPECT_EQ(report.ttftUs.count(), 2u);
}

TEST(ServingEngine, SafetyStopsTrip)
{
    std::vector<ArrivalEvent> events;
    for (int i = 0; i < 8; ++i)
        events.push_back(arrival(0, 8, 50));
    {
        ReplayTraffic traffic("replay", events);
        FakeLatencyModel latency;
        ServingConfig cfg = smallConfig();
        cfg.maxIterations = 5;
        ServingEngine engine(cfg, traffic, latency);
        auto report = engine.run();
        EXPECT_TRUE(report.hitSafetyStop);
        EXPECT_EQ(report.iterations, 5);
        EXPECT_EQ(report.requestsCompleted, 0);
    }
    {
        ReplayTraffic traffic("replay", events);
        FakeLatencyModel latency(1000, 10);
        ServingConfig cfg = smallConfig();
        cfg.maxCycles = 3000;
        ServingEngine engine(cfg, traffic, latency);
        auto report = engine.run();
        EXPECT_TRUE(report.hitSafetyStop);
        EXPECT_LT(report.iterations, 50);
    }
}

TEST(ServingEngine, QueueingDelayShowsUpInTtftUnderOverload)
{
    // Saturate a tiny batch budget: later requests must wait.
    std::vector<ArrivalEvent> burst;
    for (int i = 0; i < 64; ++i)
        burst.push_back(arrival(0, 8, 8));
    ReplayTraffic traffic("replay", burst);
    FakeLatencyModel latency;
    ServingEngine engine(smallConfig(1000, 8), traffic, latency);
    auto report = engine.run();

    EXPECT_EQ(report.requestsCompleted, 64);
    // With maxBatch 8 and 8 output tokens each, the last cohort waits
    // ~7 full service generations: p99 TTFT far above p50.
    EXPECT_GT(report.ttftUs.p99(), report.ttftUs.percentile(10.0) * 4);
}

ServingConfig
chunkedConfig(int chunk_tokens, bool piggyback,
              int pages_per_channel = 1000, int max_batch = 32)
{
    ServingConfig cfg = smallConfig(pages_per_channel, max_batch);
    cfg.scheduler.prefill.chunkTokens = chunk_tokens;
    cfg.scheduler.prefill.piggyback = piggyback;
    return cfg;
}

TEST(ServingEngine, PrefillDecomposesTtftExactly)
{
    std::vector<ArrivalEvent> events;
    for (int i = 0; i < 24; ++i)
        events.push_back(arrival(static_cast<Cycle>(i) * 400,
                                 5 + (i * 7) % 40, 1 + i % 4));
    ReplayTraffic traffic("replay", events);
    FakeLatencyModel latency;
    ServingEngine engine(chunkedConfig(16, true), traffic, latency);
    auto report = engine.run();

    EXPECT_EQ(report.requestsCompleted, 24);
    EXPECT_EQ(report.requestsInFlight, 0);
    for (RequestId id = 0; id < 24; ++id) {
        const Request &req = engine.pool().request(id);
        ASSERT_EQ(req.status, RequestStatus::Done);
        EXPECT_EQ(req.prefilledTokens, req.inputLength);
        // Timeline orders: arrival <= admit < prefillEnd < firstToken.
        EXPECT_LE(req.arrivalCycle, req.admitCycle);
        EXPECT_LT(req.admitCycle, req.prefillEndCycle);
        EXPECT_LT(req.prefillEndCycle, req.firstTokenCycle);
        // The decomposition sums to ttft() exactly, in cycles.
        EXPECT_EQ(req.queueingDelay() + req.prefillLatency() +
                      req.firstDecodeLatency(),
                  req.ttft());
        // With a real prefill phase, TTFT strictly exceeds queueing.
        EXPECT_GT(req.ttft(), req.queueingDelay());
    }
    EXPECT_EQ(report.ttftUs.count(), 24u);
    EXPECT_EQ(report.queueUs.count(), 24u);
    EXPECT_EQ(report.prefillUs.count(), 24u);
    EXPECT_EQ(report.firstDecodeUs.count(), 24u);
    // Every prompt here spans >= 1 chunk, so prefill latency is at
    // least one full iteration for every request.
    EXPECT_GT(report.prefillUs.percentile(0.0), 0.0);
    std::uint64_t prompt_tokens = 0;
    for (const auto &ev : events)
        prompt_tokens += static_cast<std::uint64_t>(ev.inputLength);
    EXPECT_EQ(report.prefilledTokens, prompt_tokens);
}

TEST(ServingEngine, WholePromptPrefillIsASingleIteration)
{
    ReplayTraffic traffic(
        "replay", {arrival(0, 100, 2), arrival(0, 37, 2)});
    FakeLatencyModel latency;
    ServingConfig cfg = smallConfig();
    cfg.scheduler.prefill.chunkTokens = 0; // whole prompts
    ServingEngine engine(cfg, traffic, latency);
    auto report = engine.run();

    ASSERT_EQ(report.requestsCompleted, 2);
    // Both prompts prefill together in the first iteration (no token
    // budget), and that iteration carries no decode work.
    const auto &trace = engine.trace();
    ASSERT_GE(trace.size(), 2u);
    EXPECT_EQ(trace[0].batch, 0);
    EXPECT_EQ(trace[0].prefilling, 2);
    EXPECT_EQ(trace[0].prefillTokens, 137);
    EXPECT_EQ(trace[1].batch, 2);
    EXPECT_EQ(trace[1].prefillTokens, 0);
}

TEST(ServingEngine, NoPiggybackStallsDecodeDuringPrefill)
{
    std::vector<ArrivalEvent> events;
    for (int i = 0; i < 16; ++i)
        events.push_back(
            arrival(static_cast<Cycle>(i) * 2000, 24 + i % 9, 4));
    ReplayTraffic traffic("replay", events);
    FakeLatencyModel latency;
    ServingEngine engine(chunkedConfig(16, /*piggyback=*/false),
                         traffic, latency);
    auto report = engine.run();

    EXPECT_EQ(report.requestsCompleted, 16);
    // Dedicated prefill iterations: decode and prefill never mix.
    for (const auto &row : engine.trace())
        EXPECT_TRUE(row.batch == 0 || row.prefillTokens == 0)
            << "iteration " << row.iteration
            << " mixed prefill into a decode iteration";
}

TEST(ServingEngine, SafetyStopReportsInFlightAndSkipsSentinels)
{
    std::vector<ArrivalEvent> events;
    for (int i = 0; i < 12; ++i)
        events.push_back(arrival(0, 40, 50));
    ReplayTraffic traffic("replay", events);
    FakeLatencyModel latency;
    ServingConfig cfg = chunkedConfig(16, true);
    cfg.maxIterations = 8;
    ServingEngine engine(cfg, traffic, latency);
    auto report = engine.run();

    EXPECT_TRUE(report.hitSafetyStop);
    EXPECT_EQ(report.requestsCompleted, 0);
    EXPECT_EQ(report.requestsInFlight, 12);
    // Unstamped timeline sentinels never reach the percentiles: every
    // recorded sample is a real span. Requests still mid-prefill at
    // the stop contribute nothing; requests with a first token (none
    // here: 8 iterations cannot finish 40-token prompts + decode for
    // all) contribute TTFT only.
    std::size_t stamped = 0;
    for (RequestId id = 0; id < 12; ++id) {
        if (engine.pool().request(id).firstTokenCycle != kCycleMax)
            ++stamped;
    }
    EXPECT_EQ(report.ttftUs.count(), stamped);
    EXPECT_EQ(report.e2eUs.count(), 0u);
    const double sane_bound =
        cyclesToMicros(cfg.maxIterations * 100'000'000ull);
    for (double s : report.ttftUs.samples())
        EXPECT_LT(s, sane_bound);
}

TEST(ServingEngine, ChunkedRunsAreDeterministic)
{
    auto run_once = [] {
        auto traffic = ReplayTraffic::fixedRate(
            shareGptDataset(), 5000.0, 40, 17);
        FakeLatencyModel latency;
        ServingEngine engine(chunkedConfig(64, true), *traffic,
                             latency);
        auto report = engine.run();
        return std::make_tuple(report.makespanCycles,
                               report.ttftUs.samples(),
                               report.prefillUs.samples(),
                               report.e2eUs.samples());
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(ServingEngine, RunsAreDeterministic)
{
    auto run_once = [] {
        auto traffic = ReplayTraffic::fixedRate(
            shareGptDataset(), 5000.0, 40, 17);
        FakeLatencyModel latency;
        ServingEngine engine(smallConfig(), *traffic, latency);
        auto report = engine.run();
        return std::make_tuple(report.makespanCycles,
                               report.ttftUs.samples(),
                               report.e2eUs.samples());
    };
    EXPECT_EQ(run_once(), run_once());
}

} // namespace
} // namespace neupims::runtime
