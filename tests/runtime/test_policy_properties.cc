/**
 * @file
 * Property tests of the scheduling policies' ranks
 * (runtime/sched_policy.h) and their integration with the serving
 * stack:
 *
 *  - round-trip parse/name tests for every mode/policy/name helper
 *    (preempt mode, victim policy, scheduling policy);
 *  - unit properties of the built-in ranks (strict-total pressure
 *    order, PriorityClass aging promotion, SloEdf deadline/slack
 *    ordering, packing urgency, victim-score adapter semantics) and
 *    the scheduler's victim choice among equal ranks;
 *  - starvation-freedom under PriorityClass aging: in a sustained
 *    over-capacity two-class run every admitted request eventually
 *    prefills, decodes and completes;
 *  - per-class request conservation: submitted = completed + dropped
 *    + in-flight within every priority class, cross-checked between
 *    the per-class report and a direct pool scan;
 *  - the differentiation contract: in a two-class over-capacity
 *    scenario PriorityClass and SloEdf serve the high class strictly
 *    better than the low class AND better than the same requests
 *    under Fcfs, on p95 TTFT and on TTFT-SLO attainment.
 *
 * (The Fcfs byte-identity anchor against the canonical SBI serving
 * golden lives in test_golden_trace.cc:
 * ExplicitFcfsPolicyMatchesExistingGolden.)
 */

#include <gtest/gtest.h>

#include <map>

#include "core/serving_setup.h"
#include "runtime/batch_scheduler.h"
#include "runtime/sched_policy.h"
#include "runtime/serving_engine.h"
#include "runtime/traffic.h"

namespace neupims {
namespace {

using runtime::PreemptMode;
using runtime::Request;
using runtime::SchedPolicyConfig;
using runtime::SchedPolicyKind;
using runtime::VictimPolicy;

// --- name helper round-trips ------------------------------------------------

TEST(PolicyNames, PreemptModeRoundTrips)
{
    for (auto mode : {PreemptMode::Off, PreemptMode::Recompute,
                      PreemptMode::Swap}) {
        EXPECT_EQ(runtime::preemptModeByName(
                      runtime::preemptModeName(mode)),
                  mode);
    }
    EXPECT_STREQ(runtime::preemptModeName(PreemptMode::Off), "off");
    EXPECT_STREQ(runtime::preemptModeName(PreemptMode::Recompute),
                 "recompute");
    EXPECT_STREQ(runtime::preemptModeName(PreemptMode::Swap), "swap");
}

TEST(PolicyNames, VictimPolicyRoundTrips)
{
    for (auto victim :
         {VictimPolicy::LifoYoungest, VictimPolicy::FewestPages,
          VictimPolicy::LongestRemaining}) {
        EXPECT_EQ(runtime::victimPolicyByName(
                      runtime::victimPolicyName(victim)),
                  victim);
    }
    EXPECT_STREQ(runtime::victimPolicyName(VictimPolicy::LifoYoungest),
                 "lifo");
    EXPECT_STREQ(runtime::victimPolicyName(VictimPolicy::FewestPages),
                 "fewest");
    EXPECT_STREQ(
        runtime::victimPolicyName(VictimPolicy::LongestRemaining),
        "longest");
}

TEST(PolicyNames, SchedulingPolicyRoundTrips)
{
    for (auto kind :
         {SchedPolicyKind::Fcfs, SchedPolicyKind::PriorityClass,
          SchedPolicyKind::SloEdf}) {
        EXPECT_EQ(runtime::schedulingPolicyByName(
                      runtime::schedulingPolicyName(kind)),
                  kind);
    }
    EXPECT_STREQ(runtime::schedulingPolicyName(SchedPolicyKind::Fcfs),
                 "fcfs");
    EXPECT_STREQ(
        runtime::schedulingPolicyName(SchedPolicyKind::PriorityClass),
        "priority");
    EXPECT_STREQ(
        runtime::schedulingPolicyName(SchedPolicyKind::SloEdf), "edf");
}

// --- built-in rank unit properties -----------------------------------------

Request
makeRequest(RequestId id, Cycle arrival, int cls,
            Cycle ttft_slo = 0)
{
    Request req;
    req.id = id;
    req.inputLength = 64;
    req.outputLength = 32;
    req.arrivalCycle = arrival;
    req.priorityClass = cls;
    req.ttftSlo = ttft_slo;
    return req;
}

TEST(PolicyUnits, FcfsOutranksBySubmissionAge)
{
    SchedPolicyConfig cfg;
    Request a = makeRequest(1, 0, 5);
    Request b = makeRequest(2, 0, 0);
    // Classes are ignored entirely; only the id matters.
    EXPECT_TRUE(runtime::outranks(cfg, a, b, 0));
    EXPECT_FALSE(runtime::outranks(cfg, b, a, 0));
    // Equal ranks: admission keeps queue order.
    EXPECT_EQ(runtime::rank(cfg, a, 0), runtime::rank(cfg, b, 0));
    EXPECT_TRUE(runtime::urgent(cfg, a, 0));
}

TEST(PolicyUnits, PriorityClassAgingPromotesWaitingRequests)
{
    SchedPolicyConfig cfg;
    cfg.kind = SchedPolicyKind::PriorityClass;
    cfg.agingCycles = 1000;
    auto rank = [&cfg](const Request &req, Cycle now) {
        return runtime::rank(cfg, req, now);
    };
    Request low = makeRequest(1, 0, 0);    // older, low class
    Request high = makeRequest(2, 500, 1); // arrives later, high
    // Fresh: the high class outranks.
    EXPECT_TRUE(runtime::outranks(cfg, high, low, 500));
    EXPECT_LT(rank(high, 500), rank(low, 500));
    // Once the low request's head start in waiting spans an aging
    // period boundary, its effective class catches up and the id
    // tie-break favors the older request.
    EXPECT_TRUE(runtime::outranks(cfg, low, high, 2000));
    EXPECT_FALSE(rank(high, 2000) < rank(low, 2000));
    // The real starvation guard: a long-waiting low-class request
    // strictly outranks every fresh high-class arrival.
    Request fresh = makeRequest(3, 10'000, 1);
    EXPECT_TRUE(runtime::outranks(cfg, low, fresh, 10'000));
    EXPECT_LT(rank(low, 10'000), rank(fresh, 10'000));
    // Aging disabled: strict classes forever.
    SchedPolicyConfig strict = cfg;
    strict.agingCycles = 0;
    EXPECT_TRUE(runtime::outranks(strict, high, low, 1u << 30));
    // Urgency separates the classes for the packer.
    EXPECT_FALSE(runtime::urgent(cfg, low, 0));
    EXPECT_TRUE(runtime::urgent(cfg, high, 0));
}

TEST(PolicyUnits, SloEdfOrdersByDeadlineThenSlack)
{
    SchedPolicyConfig cfg;
    cfg.kind = SchedPolicyKind::SloEdf;
    // Earlier TTFT deadline outranks: same arrival, tighter target.
    Request tight = makeRequest(2, 0, 0, 1'000'000);
    Request loose = makeRequest(1, 0, 0, 100'000'000);
    EXPECT_TRUE(runtime::outranks(cfg, tight, loose, 0));
    EXPECT_LT(runtime::rank(cfg, tight, 0), runtime::rank(cfg, loose, 0));
    // A decoding request falls back to least slack on the per-token
    // target: one far behind its next-token deadline outranks one
    // comfortably ahead.
    Request late = makeRequest(3, 0, 0);
    late.beginPrefill();
    late.advancePrefill(late.inputLength);
    late.firstTokenCycle = 1000;
    late.generatedTokens = 1;
    late.tptSlo = 10; // next-token deadline long past
    Request early = makeRequest(4, 0, 0);
    early.beginPrefill();
    early.advancePrefill(early.inputLength);
    early.firstTokenCycle = 1000;
    early.generatedTokens = 1;
    early.tptSlo = 100'000'000;
    EXPECT_TRUE(runtime::outranks(cfg, late, early, 2'000'000));
    // Exhausted slack is urgent, and so is any slack up to the
    // default TTFT target.
    EXPECT_TRUE(runtime::urgent(cfg, late, 2'000'000));
    Request at_target = makeRequest(5, 0, 0); // slack == default TTFT
    Request past_target = makeRequest(6, 1, 0);
    EXPECT_TRUE(runtime::urgent(cfg, at_target, 0));
    EXPECT_FALSE(runtime::urgent(cfg, past_target, 0));
}

TEST(PolicyUnits, VictimScoreAdapterMatchesEnumSemantics)
{
    Request small = makeRequest(1, 0, 0);
    Request big = makeRequest(2, 0, 0);
    big.outputLength = 4096; // far more work remaining
    // Lifo: constant score (ties resolve toward the youngest in the
    // scheduler's scan).
    EXPECT_EQ(runtime::victimScoreFor(VictimPolicy::LifoYoungest,
                                      small, 10),
              runtime::victimScoreFor(VictimPolicy::LifoYoungest, big,
                                      100));
    // Fewest pages: fewer pages scores higher.
    EXPECT_GT(
        runtime::victimScoreFor(VictimPolicy::FewestPages, small, 2),
        runtime::victimScoreFor(VictimPolicy::FewestPages, big, 20));
    // Longest remaining: more remaining work scores higher.
    EXPECT_GT(runtime::victimScoreFor(VictimPolicy::LongestRemaining,
                                      big, 2),
              runtime::victimScoreFor(VictimPolicy::LongestRemaining,
                                      small, 2));
}

/**
 * The configured victim order breaks ties between equal EDF ranks at
 * any slack. One channel: resident C is late for its next token and
 * its decode append needs the last page; the older A holds 1 page and
 * the younger B 2 or 3, both with the same per-token slack. Under
 * --victim fewest A goes. The slacks span 2.5e9 to 1e11 cycles: a
 * score folded into the slack as a small scaled term would vanish in
 * rounding at the top of that range and leave the youngest, B.
 */
TEST(PolicyVictims, EdfEqualSlackEvictsByVictimPolicy)
{
    using namespace runtime;
    for (Cycle tpt : {Cycle{2'500'000'000}, Cycle{25'000'000'000},
                      Cycle{100'000'000'000}}) {
        for (int b_tokens : {20, 40}) {
            SCOPED_TRACE(testing::Message() << "tpt " << tpt << ", B "
                                            << b_tokens << " tokens");
            KvCacheConfig kv_cfg;
            kv_cfg.channels = 1;
            kv_cfg.tokensPerPage = 16;
            kv_cfg.bytesPerTokenPerLayer = 1024;
            kv_cfg.layers = 1;
            // A's 1 page + B's pages + C's 3: no page to spare.
            int pages = 1 + (b_tokens + 15) / 16 + 3;
            kv_cfg.bytesPerChannel =
                kv_cfg.pageBytes() * static_cast<Bytes>(pages);
            SchedulerConfig cfg;
            cfg.channels = 1;
            cfg.maxBatch = 16;
            cfg.preempt.mode = PreemptMode::Recompute;
            cfg.preempt.victim = VictimPolicy::FewestPages;
            cfg.policy.kind = SchedPolicyKind::SloEdf;
            RequestPool pool;
            PagedKvCache kv(kv_cfg);
            BatchScheduler sched(cfg, pool, kv);
            RequestId a = pool.submit(10, 8, 0, 0, tpt);
            RequestId b = pool.submit(b_tokens, 8, 0, 0, tpt);
            RequestId c = pool.submit(47, 8, 0, 0, 1); // 1 slot left
            // One prompt pass and one decode fill C's third page.
            sched.completeIteration(sched.scheduleIteration(0));
            const IterationSchedule &decode = sched.scheduleIteration(10);
            ASSERT_EQ(decode.batchSize(), 3);
            sched.completeIteration(decode);
            for (RequestId id : {a, b, c})
                pool.request(id).firstTokenCycle = 20;
            // C (slack 21 - 1000) outranks A and B (equal slack
            // 20 + tpt - 1000) and must evict one for its page.
            const IterationSchedule &s = sched.scheduleIteration(1000);
            ASSERT_EQ(s.preemptedNow.size(), 1u);
            EXPECT_EQ(s.preemptedNow[0]->id, a);
        }
    }
}

// --- serving-stack properties ----------------------------------------------

struct PolicyRun
{
    runtime::ServingReport report;
    std::map<int, int> done, dropped, inflight; ///< pool scan by class
};

PolicyRun
runOverCapacity(const char *policy, const char *mix, double rate,
                int max_iterations)
{
    auto llm = model::gpt3_13b();
    const auto &backend = core::servingBackendByName("NeuPIMs+SBI");
    auto ds = runtime::shareGptDataset();
    ds.maxLength = 320;
    auto traffic = runtime::makeTraffic("poisson", ds, rate, 96, 7);
    traffic->setClassMix(runtime::classMixByName(mix), 7);
    auto latency = core::makeIterationModel(backend.device, llm);
    auto cfg = core::servingConfigFor(backend.device, llm);
    core::ServingOptions opt;
    opt.preempt = "recompute";
    opt.policy = policy;
    opt.kvScale = 6;
    core::applyServingOptions(cfg, opt);
    cfg.maxIterations = max_iterations;
    runtime::ServingEngine engine(cfg, *traffic, *latency);
    PolicyRun run;
    run.report = engine.run();
    for (RequestId id = 0;
         id < static_cast<RequestId>(
                  run.report.requestsSubmitted);
         ++id) {
        const Request &req = engine.pool().request(id);
        if (req.status == runtime::RequestStatus::Done)
            ++run.done[req.priorityClass];
        else if (req.status == runtime::RequestStatus::Dropped)
            ++run.dropped[req.priorityClass];
        else
            ++run.inflight[req.priorityClass];
    }
    return run;
}

/**
 * Starvation-freedom under PriorityClass aging: with the high class
 * continuously outranking, aging still guarantees every admitted
 * low-class request eventually receives prefill budget and pages —
 * the run drains completely with no drops and every request's full
 * timeline stamped.
 */
TEST(PolicyProperties, PriorityAgingIsStarvationFree)
{
    auto run = runOverCapacity("priority", "two-tier", 540.0, 0);
    EXPECT_FALSE(run.report.hitSafetyStop);
    EXPECT_EQ(run.report.requestsCompleted,
              run.report.requestsSubmitted);
    EXPECT_EQ(run.report.requestsDropped, 0);
    for (const auto &cls : run.report.classes) {
        EXPECT_EQ(cls.completed, cls.submitted)
            << "class " << cls.priorityClass << " starved";
        EXPECT_EQ(static_cast<std::size_t>(cls.ttftUs.count()),
                  static_cast<std::size_t>(cls.submitted))
            << "class " << cls.priorityClass
            << " has requests that never produced a first token";
    }
}

/**
 * Per-class request conservation: within every priority class,
 * submitted = completed + dropped + in-flight — checked on a
 * safety-stopped over-capacity run (so all three buckets are
 * populated) against both the per-class report and a direct scan of
 * the pool's terminal states.
 */
TEST(PolicyProperties, PerClassRequestConservation)
{
    for (const char *policy : {"fcfs", "priority", "edf"}) {
        auto run = runOverCapacity(policy, "three-tier", 810.0, 120);
        EXPECT_TRUE(run.report.hitSafetyStop);
        int submitted_sum = 0;
        for (const auto &cls : run.report.classes) {
            EXPECT_EQ(cls.submitted,
                      run.done[cls.priorityClass] +
                          run.dropped[cls.priorityClass] +
                          run.inflight[cls.priorityClass])
                << policy << " class " << cls.priorityClass;
            EXPECT_EQ(cls.completed, run.done[cls.priorityClass])
                << policy << " class " << cls.priorityClass;
            EXPECT_EQ(cls.dropped, run.dropped[cls.priorityClass])
                << policy << " class " << cls.priorityClass;
            submitted_sum += cls.submitted;
        }
        EXPECT_EQ(submitted_sum, run.report.requestsSubmitted)
            << policy;
        EXPECT_EQ(run.report.requestsInFlight,
                  run.report.requestsSubmitted -
                      run.report.requestsCompleted -
                      run.report.requestsDropped)
            << policy;
    }
}

/** Fixed 1 us per iteration: enough to drive the engine's loop. */
class UnitLatencyModel : public runtime::IterationLatencyModel
{
  public:
    const std::string &name() const override { return name_; }
    Cycle
    iterationCycles(const runtime::IterationSchedule &) override
    {
        return 1000;
    }

  private:
    std::string name_ = "unit";
};

/**
 * Regression: with preemption off and a reordering policy, the
 * request the engine rejects as can-never-be-placed must be the
 * policy's blocked *pick*, not the waiting-queue head. A high-class
 * oversized request must not get a placeable low-class head dropped
 * in its stead.
 */
TEST(PolicyProperties, UnplaceablePickIsDroppedNotTheHead)
{
    runtime::ServingConfig cfg;
    cfg.kv.channels = 2;
    cfg.kv.tokensPerPage = 16;
    cfg.kv.bytesPerTokenPerLayer = 1024;
    cfg.kv.layers = 1;
    cfg.kv.bytesPerChannel =
        cfg.kv.pageBytes() * 8; // 8 pages = 128 tokens per channel
    cfg.scheduler.channels = 2;
    cfg.scheduler.maxBatch = 8;
    cfg.scheduler.policy.kind = SchedPolicyKind::PriorityClass;

    // Arrival order: a small, placeable low-class request is the
    // waiting-queue head; the oversized high-class request behind it
    // is the policy's pick. The pick cannot be placed anywhere and
    // must be the one dropped — dropping the head instead would
    // reject a servable request while the oversized one stays queued.
    std::vector<runtime::ArrivalEvent> events;
    runtime::ArrivalEvent low;
    low.inputLength = 16;
    low.outputLength = 4;
    events.push_back(std::move(low));
    runtime::ArrivalEvent high;
    high.inputLength = 4096;
    high.outputLength = 4;
    high.priorityClass = 1;
    events.push_back(std::move(high));
    runtime::ReplayTraffic traffic("unplaceable", std::move(events));
    UnitLatencyModel latency;
    runtime::ServingEngine engine(cfg, traffic, latency);
    auto report = engine.run();

    EXPECT_EQ(report.requestsCompleted, 1);
    EXPECT_EQ(report.requestsDropped, 1);
    EXPECT_EQ(engine.pool().request(0).status,
              runtime::RequestStatus::Done);
    EXPECT_EQ(engine.pool().request(1).status,
              runtime::RequestStatus::Dropped);
}

/**
 * The differentiation contract (the reason the policy API exists): in
 * a two-class over-capacity scenario, PriorityClass and SloEdf serve
 * the high class strictly better than the low class AND strictly
 * better than the same requests under Fcfs, on p95 TTFT; and the high
 * class's TTFT-SLO attainment is at least Fcfs's, which measurably
 * misses the tight interactive target.
 */
TEST(PolicyProperties, PolicyDifferentiationInTwoClassOverCapacity)
{
    auto fcfs = runOverCapacity("fcfs", "two-tier", 540.0, 0);
    auto prio = runOverCapacity("priority", "two-tier", 540.0, 0);
    auto edf = runOverCapacity("edf", "two-tier", 540.0, 0);

    const auto &fcfs_hi = fcfs.report.classReport(1);
    for (const auto *run : {&prio, &edf}) {
        const auto &hi = run->report.classReport(1);
        const auto &lo = run->report.classReport(0);
        ASSERT_GT(hi.submitted, 0);
        ASSERT_GT(lo.submitted, 0);
        // High class strictly better than low class.
        EXPECT_LT(hi.ttftUs.p95(), lo.ttftUs.p95());
        // High class strictly better than under Fcfs.
        EXPECT_LT(hi.ttftUs.p95(), fcfs_hi.ttftUs.p95());
        EXPECT_GE(hi.ttftAttainment, fcfs_hi.ttftAttainment);
    }
    // The tight interactive target is actually binding: Fcfs
    // measurably misses it while the SLO-aware policies hold it.
    EXPECT_LT(fcfs_hi.ttftAttainment, 1.0);
    EXPECT_GT(prio.report.classReport(1).ttftAttainment,
              fcfs_hi.ttftAttainment);
    EXPECT_GT(edf.report.classReport(1).ttftAttainment,
              fcfs_hi.ttftAttainment);
}

} // namespace
} // namespace neupims
