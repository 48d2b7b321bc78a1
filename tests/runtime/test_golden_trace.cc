/**
 * @file
 * Golden-trace regression tests of the serving stack: canonical
 * serving runs are serialized iteration by iteration (decode batch,
 * prefill slices/tokens, admissions, retirements, Algorithm-1 channel
 * loads, iteration cycles, KV utilization) and diffed byte-for-byte
 * against the files under tests/golden, so any behavioral change to
 * the scheduler, the request pool, the traffic models, the compiler
 * or the analytic iteration model is caught — intended changes
 * regenerate with NEUPIMS_UPDATE_GOLDEN=1.
 *
 * Portability note: the traces embed doubles produced through libm
 * transcendentals (lognormal workload sampling, Poisson/Gamma gaps),
 * which can differ by an ulp across libm implementations. The
 * checked-in goldens are pinned on glibc/x86-64 (what CI runs); on
 * another platform, regenerate locally before relying on them.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <string>

#include "common/golden_util.h"
#include "core/serving_setup.h"
#include "runtime/serving_engine.h"
#include "runtime/traffic.h"

namespace neupims {
namespace {

struct GoldenServingCase
{
    const char *file;
    const char *backend;
    const char *traffic;
    const char *dataset;
    double rate;
    int requests;
};

/** Print the golden file: gtest would dump the raw bytes, pointers
 * included, and gtest_discover_tests copies that dump into the CTest
 * names, so they would change on every discovery run (ASLR). */
void
PrintTo(const GoldenServingCase &c, std::ostream *os)
{
    *os << c.file;
}

runtime::ServingEngine
makeEngine(const GoldenServingCase &c,
           std::unique_ptr<runtime::TrafficModel> &traffic,
           std::unique_ptr<runtime::IterationLatencyModel> &latency)
{
    auto llm = model::gpt3_13b();
    const auto &backend = core::servingBackendByName(c.backend);
    auto ds = std::string(c.dataset) == "Alpaca"
                  ? runtime::alpacaDataset()
                  : runtime::shareGptDataset();
    traffic =
        runtime::makeTraffic(c.traffic, ds, c.rate, c.requests, 7);
    latency = core::makeIterationModel(backend.device, llm);
    auto cfg = core::servingConfigFor(backend.device, llm);
    // Bound the trace length: the goldens pin the first 400
    // iterations plus the summary counters at that point.
    cfg.maxIterations = 400;
    return runtime::ServingEngine(cfg, *traffic, *latency);
}

std::string
caseHeader(const GoldenServingCase &c)
{
    char line[160];
    std::snprintf(line, sizeof(line),
                  "# golden serving trace: %s %s %s rate=%g "
                  "requests=%d seed=7\n",
                  c.backend, c.traffic, c.dataset, c.rate, c.requests);
    return line;
}

std::string
summaryLine(const runtime::ServingReport &report)
{
    char line[160];
    std::snprintf(line, sizeof(line),
                  "# summary completed=%d dropped=%d iterations=%d "
                  "makespan=%llu tokens=%llu\n",
                  report.requestsCompleted, report.requestsDropped,
                  report.iterations,
                  static_cast<unsigned long long>(
                      report.makespanCycles),
                  static_cast<unsigned long long>(
                      report.generatedTokens));
    return line;
}

/** The phase-model trace block: header + 12-column rows. */
std::string
phaseTraceRows(const runtime::ServingEngine &engine)
{
    std::string out =
        "# iter,start,cycles,batch,prefilling,prefilltok,"
        "admitted,retired,dropped,waiting,maxload,kvutil\n";
    char line[256];
    for (const auto &row : engine.trace()) {
        std::snprintf(
            line, sizeof(line),
            "%d,%llu,%llu,%d,%d,%d,%d,%d,%d,%d,%.6g,%.6f\n",
            row.iteration,
            static_cast<unsigned long long>(row.startCycle),
            static_cast<unsigned long long>(row.iterationCycles),
            row.batch, row.prefilling, row.prefillTokens,
            row.admitted, row.retired, row.dropped, row.waiting,
            row.maxChannelLoad, row.kvUtilization);
        out += line;
    }
    return out;
}

/** The memory-pressure trace block: header + 17-column rows. */
std::string
pressureTraceRows(const runtime::ServingEngine &engine)
{
    std::string out =
        "# iter,start,cycles,batch,prefilling,prefilltok,"
        "admitted,retired,dropped,waiting,preempted,restored,"
        "parked,swapoutKiB,swapinKiB,maxload,kvutil\n";
    char line[320];
    for (const auto &row : engine.trace()) {
        std::snprintf(
            line, sizeof(line),
            "%d,%llu,%llu,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%llu,%llu,"
            "%.6g,%.6f\n",
            row.iteration,
            static_cast<unsigned long long>(row.startCycle),
            static_cast<unsigned long long>(row.iterationCycles),
            row.batch, row.prefilling, row.prefillTokens,
            row.admitted, row.retired, row.dropped, row.waiting,
            row.preempted, row.restored, row.preemptedPool,
            static_cast<unsigned long long>(row.swapOutBytes >> 10),
            static_cast<unsigned long long>(row.swapInBytes >> 10),
            row.maxChannelLoad, row.kvUtilization);
        out += line;
    }
    return out;
}

/** Phase-model serialization: decode batch + prefill columns. */
std::string
serializeServingRun(const GoldenServingCase &c)
{
    std::unique_ptr<runtime::TrafficModel> traffic;
    std::unique_ptr<runtime::IterationLatencyModel> latency;
    auto engine = makeEngine(c, traffic, latency);
    auto report = engine.run();

    std::string out = caseHeader(c);
    out += phaseTraceRows(engine);
    out += summaryLine(report);
    return out;
}

class GoldenServingTrace
    : public ::testing::TestWithParam<GoldenServingCase>
{};

TEST_P(GoldenServingTrace, MatchesGolden)
{
    const auto &c = GetParam();
    testing::compareOrUpdateGolden(c.file, serializeServingRun(c));
}

INSTANTIATE_TEST_SUITE_P(
    CanonicalConfigs, GoldenServingTrace,
    ::testing::Values(
        GoldenServingCase{"serving_neupims_sbi_poisson_sharegpt.txt",
                          "NeuPIMs+SBI", "poisson", "ShareGPT", 180.0,
                          64},
        GoldenServingCase{"serving_neupims_bursty_sharegpt.txt",
                          "NeuPIMs", "bursty", "ShareGPT", 120.0, 64},
        GoldenServingCase{"serving_npupim_replay_alpaca.txt",
                          "NPU+PIM", "replay", "Alpaca", 800.0, 64},
        GoldenServingCase{"serving_npuonly_poisson_alpaca.txt",
                          "NPU-only", "poisson", "Alpaca", 400.0, 48}),
    [](const ::testing::TestParamInfo<GoldenServingCase> &pinfo) {
        std::string name = pinfo.param.file;
        name = name.substr(0, name.size() - 4); // drop .txt
        for (char &ch : name) {
            if (ch == '.' || ch == '+' || ch == '-')
                ch = '_';
        }
        return name;
    });

// --- memory-pressure goldens -----------------------------------------------

/**
 * Over-capacity serving under preemption: device KV capacity shrunk
 * 6x and the arrival rate at 1.5x the canonical golden's (270 vs 180
 * rps), with prompts/outputs clamped so every request individually
 * fits a channel — the sustained-pressure regime where the scheduler
 * must evict and restore instead of stalling. Serialized with the
 * preemption columns (victims, restores, parked pool, swap KiB).
 */
std::string
serializePreemptRun(const GoldenServingCase &c,
                    runtime::PreemptMode mode)
{
    auto llm = model::gpt3_13b();
    const auto &backend = core::servingBackendByName(c.backend);
    auto ds = runtime::shareGptDataset();
    ds.maxLength = 320; // input+output always fits a shrunk channel
    auto traffic =
        runtime::makeTraffic(c.traffic, ds, c.rate, c.requests, 7);
    auto latency = core::makeIterationModel(backend.device, llm);
    auto cfg = core::servingConfigFor(backend.device, llm);
    core::ServingOptions opt;
    opt.preempt = runtime::preemptModeName(mode);
    opt.kvScale = 6;
    core::applyServingOptions(cfg, opt);
    cfg.maxIterations = 400;
    runtime::ServingEngine engine(cfg, *traffic, *latency);
    auto report = engine.run();

    std::string out = caseHeader(c);
    out += "# preempt=";
    out += runtime::preemptModeName(mode);
    out += " victim=lifo swap=64GB/s kvscale=6 maxlen=320\n";
    out += pressureTraceRows(engine);
    out += summaryLine(report);
    char line[320];
    std::snprintf(
        line, sizeof(line),
        "# pressure preemptions=%llu restores=%llu "
        "requestsPreempted=%d pagesEvicted=%llu swapOutKiB=%llu "
        "swapInKiB=%llu\n",
        static_cast<unsigned long long>(report.preemptions),
        static_cast<unsigned long long>(report.restores),
        report.requestsPreempted,
        static_cast<unsigned long long>(report.kvPagesEvicted),
        static_cast<unsigned long long>(report.swapOutBytes >> 10),
        static_cast<unsigned long long>(report.swapInBytes >> 10));
    out += line;
    return out;
}

const GoldenServingCase kOverCapacityCase{
    nullptr, "NeuPIMs+SBI", "poisson", "ShareGPT", 270.0, 96};

TEST(GoldenServingTrace, OverCapacityRecomputeMatchesGolden)
{
    testing::compareOrUpdateGolden(
        "serving_preempt_recompute_sbi_poisson_sharegpt.txt",
        serializePreemptRun(kOverCapacityCase,
                            runtime::PreemptMode::Recompute));
}

TEST(GoldenServingTrace, OverCapacitySwapMatchesGolden)
{
    testing::compareOrUpdateGolden(
        "serving_preempt_swap_sbi_poisson_sharegpt.txt",
        serializePreemptRun(kOverCapacityCase,
                            runtime::PreemptMode::Swap));
}

/**
 * The over-capacity runs must be *sustained*: preemption replaces the
 * admission-stall-and-drop policy, so a fitting request is never
 * dropped — only evicted and restored.
 */
TEST(GoldenServingTrace, OverCapacityRunsSustainWithoutDrops)
{
    for (auto mode : {runtime::PreemptMode::Recompute,
                      runtime::PreemptMode::Swap}) {
        auto llm = model::gpt3_13b();
        const auto &backend = core::servingBackendByName("NeuPIMs+SBI");
        auto ds = runtime::shareGptDataset();
        ds.maxLength = 320;
        auto traffic = runtime::makeTraffic("poisson", ds, 270.0, 96, 7);
        auto latency = core::makeIterationModel(backend.device, llm);
        auto cfg = core::servingConfigFor(backend.device, llm);
        core::ServingOptions opt;
        opt.preempt = runtime::preemptModeName(mode);
        opt.kvScale = 6;
        core::applyServingOptions(cfg, opt);
        runtime::ServingEngine engine(cfg, *traffic, *latency);
        auto report = engine.run();
        EXPECT_EQ(report.requestsDropped, 0)
            << runtime::preemptModeName(mode);
        EXPECT_EQ(report.requestsCompleted, 96)
            << runtime::preemptModeName(mode);
        EXPECT_GT(report.preemptions, 0u)
            << runtime::preemptModeName(mode);
        EXPECT_EQ(report.preemptions, report.restores)
            << runtime::preemptModeName(mode);
        if (mode == runtime::PreemptMode::Swap) {
            EXPECT_GT(report.swapOutBytes, 0u);
            EXPECT_EQ(report.swapOutBytes, report.swapInBytes);
        } else {
            EXPECT_GT(report.kvPagesEvicted, 0u);
        }
    }
}

/**
 * PreemptConfig::Off byte-identity: explicitly configuring the Off
 * mode (rather than merely defaulting to it) must reproduce the
 * canonical phase-model golden byte-for-byte — the memory-pressure
 * refactor is invisible until it is switched on.
 */
TEST(GoldenServingTrace, ExplicitPreemptOffMatchesExistingGolden)
{
    GoldenServingCase c{"serving_neupims_sbi_poisson_sharegpt.txt",
                        "NeuPIMs+SBI", "poisson", "ShareGPT", 180.0,
                        64};
    std::unique_ptr<runtime::TrafficModel> traffic;
    std::unique_ptr<runtime::IterationLatencyModel> latency;
    auto llm = model::gpt3_13b();
    const auto &backend = core::servingBackendByName(c.backend);
    auto ds = runtime::shareGptDataset();
    traffic = runtime::makeTraffic(c.traffic, ds, c.rate, c.requests, 7);
    latency = core::makeIterationModel(backend.device, llm);
    auto cfg = core::servingConfigFor(backend.device, llm);
    core::ServingOptions opt;
    opt.preempt = "off";
    opt.victim = "fewest";
    opt.swapGbps = 8.0;
    core::applyServingOptions(cfg, opt);
    cfg.maxIterations = 400;
    runtime::ServingEngine engine(cfg, *traffic, *latency);
    auto report = engine.run();

    std::string out = caseHeader(c);
    out += phaseTraceRows(engine);
    out += summaryLine(report);
    // Compare only (never regenerate through this test): the file is
    // owned by the canonical phase-model case above.
    EXPECT_EQ(out, testing::readGolden(c.file));
}

/**
 * Fcfs identity: explicitly configuring the Fcfs scheduling policy
 * (with a uniform class mix stamped onto the traffic, non-default
 * aging/SLO knobs, and the full ServingOptions wiring) must
 * reproduce the canonical phase-model golden byte-for-byte — the
 * pluggable-policy refactor is invisible until a non-Fcfs policy is
 * selected. This is the semantic anchor of the policy API.
 */
TEST(GoldenServingTrace, ExplicitFcfsPolicyMatchesExistingGolden)
{
    GoldenServingCase c{"serving_neupims_sbi_poisson_sharegpt.txt",
                        "NeuPIMs+SBI", "poisson", "ShareGPT", 180.0,
                        64};
    auto llm = model::gpt3_13b();
    const auto &backend = core::servingBackendByName(c.backend);
    auto ds = runtime::shareGptDataset();
    auto traffic =
        runtime::makeTraffic(c.traffic, ds, c.rate, c.requests, 7);
    traffic->setClassMix(runtime::classMixByName("uniform"), 7);
    auto latency = core::makeIterationModel(backend.device, llm);
    auto cfg = core::servingConfigFor(backend.device, llm);
    core::ServingOptions opt;
    opt.policy = "fcfs";
    opt.agingMs = 1.0;     // Fcfs ignores every policy knob
    opt.sloTtftMs = 10.0;
    opt.sloTptMs = 1.0;
    core::applyServingOptions(cfg, opt);
    cfg.maxIterations = 400;
    runtime::ServingEngine engine(cfg, *traffic, *latency);
    auto report = engine.run();

    std::string out = caseHeader(c);
    out += phaseTraceRows(engine);
    out += summaryLine(report);
    // Compare only (never regenerate through this test): the file is
    // owned by the canonical phase-model case above.
    EXPECT_EQ(out, testing::readGolden(c.file));
}

// --- scheduling-policy goldens ---------------------------------------------

/**
 * Priority/SLO scheduling under sustained over-capacity pressure: the
 * recompute-preemption scenario (KV/6, clamped lengths) at 2x the
 * canonical rate with a two-tier class mix, once per non-Fcfs
 * policy. The trace pins
 * every ordering the policy owns (admission, prefill budget, victim
 * choice, restores); the footer pins the per-class latency split and
 * SLO attainment the policy exists to move.
 */
const GoldenServingCase kPolicyCase{
    nullptr, "NeuPIMs+SBI", "poisson", "ShareGPT", 540.0, 96};

std::string
serializePolicyRun(const GoldenServingCase &c, const char *policy,
                   const char *mix)
{
    auto llm = model::gpt3_13b();
    const auto &backend = core::servingBackendByName(c.backend);
    auto ds = runtime::shareGptDataset();
    ds.maxLength = 320; // input+output always fits a shrunk channel
    auto traffic =
        runtime::makeTraffic(c.traffic, ds, c.rate, c.requests, 7);
    traffic->setClassMix(runtime::classMixByName(mix), 7);
    auto latency = core::makeIterationModel(backend.device, llm);
    auto cfg = core::servingConfigFor(backend.device, llm);
    core::ServingOptions opt;
    opt.preempt = "recompute";
    opt.policy = policy;
    opt.kvScale = 6;
    core::applyServingOptions(cfg, opt);
    cfg.maxIterations = 400;
    runtime::ServingEngine engine(cfg, *traffic, *latency);
    auto report = engine.run();

    std::string out = caseHeader(c);
    out += "# policy=";
    out += policy;
    out += " classes=";
    out += mix;
    out += " preempt=recompute victim=lifo kvscale=6 maxlen=320\n";
    out += pressureTraceRows(engine);
    out += summaryLine(report);
    char line[320];
    for (const auto &cls : report.classes) {
        std::snprintf(
            line, sizeof(line),
            "# class %d submitted=%d completed=%d dropped=%d "
            "preempted=%d ttftP95us=%.1f e2eP95us=%.1f "
            "sloTtft=%.4f sloTpt=%.4f\n",
            cls.priorityClass, cls.submitted, cls.completed,
            cls.dropped, cls.preempted, cls.ttftUs.p95(),
            cls.e2eUs.p95(), cls.ttftAttainment, cls.tptAttainment);
        out += line;
    }
    return out;
}

TEST(GoldenServingTrace, PolicyPriorityTwoTierMatchesGolden)
{
    testing::compareOrUpdateGolden(
        "serving_policy_priority_twotier_sbi_poisson_sharegpt.txt",
        serializePolicyRun(kPolicyCase, "priority", "two-tier"));
}

TEST(GoldenServingTrace, PolicyEdfTwoTierMatchesGolden)
{
    testing::compareOrUpdateGolden(
        "serving_policy_edf_twotier_sbi_poisson_sharegpt.txt",
        serializePolicyRun(kPolicyCase, "edf", "two-tier"));
}

/**
 * Same engine, same seed, run twice: the serving stack must be fully
 * deterministic (no hidden global state between engine instances).
 */
TEST(GoldenServingTrace, RunToRunDeterminism)
{
    GoldenServingCase c{"", "NeuPIMs+SBI", "poisson", "ShareGPT",
                        180.0, 48};
    EXPECT_EQ(serializeServingRun(c), serializeServingRun(c));
}

// --- fault/degradation goldens ---------------------------------------------

/**
 * Inert-robustness byte-identity: explicitly constructing the whole
 * fault layer — a FaultModel with no events, a retry config with
 * maxRetries 0 (non-default backoff/jitter/seed knobs), a disarmed
 * shedding gate, and a zero client timeout stamped through the
 * traffic model — must reproduce the canonical phase-model golden
 * byte-for-byte. The robustness refactor (and its dedicated RNG
 * streams) is invisible until a fault, timeout, retry or watermark
 * is actually armed; this test is what lets the fault streams claim
 * seed hygiene.
 */
TEST(GoldenServingTrace, InertFaultLayerMatchesExistingGolden)
{
    GoldenServingCase c{"serving_neupims_sbi_poisson_sharegpt.txt",
                        "NeuPIMs+SBI", "poisson", "ShareGPT", 180.0,
                        64};
    auto llm = model::gpt3_13b();
    const auto &backend = core::servingBackendByName(c.backend);
    auto ds = runtime::shareGptDataset();
    auto traffic =
        runtime::makeTraffic(c.traffic, ds, c.rate, c.requests, 7);
    traffic->setClientTimeout(0); // infinitely patient clients
    auto latency = core::makeIterationModel(backend.device, llm);
    auto cfg = core::servingConfigFor(backend.device, llm);
    cfg.fault = runtime::FaultModelConfig{};
    cfg.fault.seed = 99; // resolved at construction, drawn only per event
    cfg.client.maxRetries = 0;
    cfg.client.backoffCycles = 1;
    cfg.client.jitterFrac = 0.9;
    cfg.client.seed = 123;
    cfg.scheduler.shed = runtime::ShedConfig{};
    cfg.maxIterations = 400;
    runtime::ServingEngine engine(cfg, *traffic, *latency);
    auto report = engine.run();

    std::string out = caseHeader(c);
    out += phaseTraceRows(engine);
    out += summaryLine(report);
    // Compare only (never regenerate through this test): the file is
    // owned by the canonical phase-model case above.
    EXPECT_EQ(out, testing::readGolden(c.file));
    EXPECT_EQ(report.requestsTimedOut, 0);
    EXPECT_EQ(report.requestsShed, 0);
    EXPECT_EQ(report.requestsRetried, 0);
    EXPECT_EQ(report.channelsFailed, 0);
}

/** The fault trace block: pressure columns + availability columns. */
std::string
faultTraceRows(const runtime::ServingEngine &engine)
{
    std::string out =
        "# iter,start,cycles,batch,prefilling,prefilltok,"
        "admitted,retired,dropped,waiting,preempted,restored,"
        "parked,timedout,shed,retries,faultpre,offline,maxload,"
        "kvutil\n";
    char line[320];
    for (const auto &row : engine.trace()) {
        std::snprintf(
            line, sizeof(line),
            "%d,%llu,%llu,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,"
            "%d,%d,%.6g,%.6f\n",
            row.iteration,
            static_cast<unsigned long long>(row.startCycle),
            static_cast<unsigned long long>(row.iterationCycles),
            row.batch, row.prefilling, row.prefillTokens,
            row.admitted, row.retired, row.dropped, row.waiting,
            row.preempted, row.restored, row.preemptedPool,
            row.timedOut, row.shed, row.retriesScheduled,
            row.faultPreempted, row.offlineChannels,
            row.maxChannelLoad, row.kvUtilization);
        out += line;
    }
    return out;
}

/**
 * Mid-run permanent channel failure on the over-capacity recompute
 * setup (KV/6, 1.5x rate, clamped lengths): the victim channel's
 * residents are force-preempted in recompute mode and re-dispatched
 * to the surviving channels; the trace pins the failure boundary,
 * the recovery re-dispatch, and the availability footer (DESIGN.md
 * §10).
 */
TEST(GoldenServingTrace, FaultChannelFailureMatchesGolden)
{
    const GoldenServingCase c = kOverCapacityCase;
    auto llm = model::gpt3_13b();
    const auto &backend = core::servingBackendByName(c.backend);
    auto ds = runtime::shareGptDataset();
    ds.maxLength = 320;
    auto traffic =
        runtime::makeTraffic(c.traffic, ds, c.rate, c.requests, 7);
    auto latency = core::makeIterationModel(backend.device, llm);
    auto cfg = core::servingConfigFor(backend.device, llm);
    core::ServingOptions opt;
    opt.preempt = "recompute";
    opt.kvScale = 6;
    opt.fault = "fail:40:3";
    opt.faultSeed = 7;
    core::applyServingOptions(cfg, opt);
    cfg.maxIterations = 400;
    runtime::ServingEngine engine(cfg, *traffic, *latency);
    auto report = engine.run();

    std::string out = caseHeader(c);
    out += "# preempt=recompute victim=lifo kvscale=6 maxlen=320 "
           "fault=fail:40:3\n";
    out += faultTraceRows(engine);
    out += summaryLine(report);
    char line[320];
    std::snprintf(
        line, sizeof(line),
        "# fault channelsFailed=%d brownouts=%d faultPreempt=%llu "
        "kvPagesLost=%llu timedOut=%d shed=%d retried=%d "
        "wastedTok=%llu recoveryN=%d recoveryMaxUs=%.1f inSlo=%d "
        "goodputTok=%llu\n",
        report.channelsFailed, report.channelsBrownedOut,
        static_cast<unsigned long long>(report.faultPreemptions),
        static_cast<unsigned long long>(report.kvPagesLost),
        report.requestsTimedOut, report.requestsShed,
        report.requestsRetried,
        static_cast<unsigned long long>(report.wastedTokens),
        static_cast<int>(report.recoveryUs.count()),
        report.recoveryUs.maxValue(), report.requestsInSlo,
        static_cast<unsigned long long>(report.goodputTokens));
    out += line;
    testing::compareOrUpdateGolden(
        "serving_fault_fail_sbi_poisson_sharegpt.txt", out);
}


// --- shared-prefix KV-cache goldens ----------------------------------------

/**
 * Prefix-sharing-off byte-identity: running the canonical phase-model
 * configuration through the full ServingOptions wiring with
 * prefixShare explicitly false must reproduce the canonical golden
 * byte-for-byte — the refcounted COW page index (DESIGN.md §13) is
 * invisible until it is switched on. This is the semantic anchor of
 * the sharing-off path.
 */
TEST(GoldenServingTrace, ExplicitPrefixShareOffMatchesExistingGolden)
{
    GoldenServingCase c{"serving_neupims_sbi_poisson_sharegpt.txt",
                        "NeuPIMs+SBI", "poisson", "ShareGPT", 180.0,
                        64};
    auto llm = model::gpt3_13b();
    const auto &backend = core::servingBackendByName(c.backend);
    auto ds = runtime::shareGptDataset();
    auto traffic =
        runtime::makeTraffic(c.traffic, ds, c.rate, c.requests, 7);
    auto latency = core::makeIterationModel(backend.device, llm);
    auto cfg = core::servingConfigFor(backend.device, llm);
    core::ServingOptions opt;
    opt.prefixShare = false;
    core::applyServingOptions(cfg, opt);
    cfg.maxIterations = 400;
    runtime::ServingEngine engine(cfg, *traffic, *latency);
    auto report = engine.run();

    std::string out = caseHeader(c);
    out += phaseTraceRows(engine);
    out += summaryLine(report);
    // Compare only (never regenerate through this test): the file is
    // owned by the canonical phase-model case above.
    EXPECT_EQ(out, testing::readGolden(c.file));
    EXPECT_EQ(report.prefixAdmissions, 0u);
    EXPECT_EQ(report.prefixPagesDeduped, 0u);
}

/**
 * Prefix-sharing-on with content-less traffic is equally invisible:
 * Poisson arrivals carry no prompt tokens, so nothing can be
 * published or matched, and the schedule must again be byte-identical
 * to the canonical golden — sharing only acts when arrivals carry
 * synthesized content (session traffic or tagged CSV replays).
 */
TEST(GoldenServingTrace, PrefixShareOnPromptlessMatchesExistingGolden)
{
    GoldenServingCase c{"serving_neupims_sbi_poisson_sharegpt.txt",
                        "NeuPIMs+SBI", "poisson", "ShareGPT", 180.0,
                        64};
    auto llm = model::gpt3_13b();
    const auto &backend = core::servingBackendByName(c.backend);
    auto ds = runtime::shareGptDataset();
    auto traffic =
        runtime::makeTraffic(c.traffic, ds, c.rate, c.requests, 7);
    auto latency = core::makeIterationModel(backend.device, llm);
    auto cfg = core::servingConfigFor(backend.device, llm);
    core::ServingOptions opt;
    opt.prefixShare = true;
    core::applyServingOptions(cfg, opt);
    cfg.maxIterations = 400;
    runtime::ServingEngine engine(cfg, *traffic, *latency);
    auto report = engine.run();

    std::string out = caseHeader(c);
    out += phaseTraceRows(engine);
    out += summaryLine(report);
    EXPECT_EQ(out, testing::readGolden(c.file));
    EXPECT_EQ(report.prefixHits, 0u);
    EXPECT_EQ(report.prefixPagesPublished, 0u);
}

/**
 * Session-traffic golden with prefix sharing on: multi-turn
 * conversations over the shared system prompt on the NeuPIMs+SBI
 * backend, pinned iteration by iteration plus a prefix footer (hit
 * rate, deduplicated tokens/pages, COW copies, publications,
 * reclaims). Any change to the radix index walk, the COW rule, the
 * session token synthesis, or the skipped-prefill pricing moves this
 * trace.
 */
TEST(GoldenServingTrace, SessionPrefixShareMatchesGolden)
{
    GoldenServingCase c{"serving_prefix_sbi_session_sharegpt.txt",
                        "NeuPIMs+SBI", "session", "ShareGPT", 360.0,
                        64};
    auto llm = model::gpt3_13b();
    const auto &backend = core::servingBackendByName(c.backend);
    auto ds = runtime::shareGptDataset();
    runtime::SessionTrafficConfig scfg;
    scfg.hotFraction = 1.0; // every session opens the system prompt
    scfg.systemPromptTokens = 512;
    scfg.thinkMs = 40.0; // tight turns: hits land inside 400 iters
    auto traffic = runtime::makeSessionTraffic(ds, c.rate, c.requests,
                                               7, scfg);
    auto latency = core::makeIterationModel(backend.device, llm);
    auto cfg = core::servingConfigFor(backend.device, llm);
    core::ServingOptions opt;
    opt.prefixShare = true;
    core::applyServingOptions(cfg, opt);
    cfg.maxIterations = 400;
    runtime::ServingEngine engine(cfg, *traffic, *latency);
    auto report = engine.run();

    std::string out = caseHeader(c);
    out += "# prefix-share=on traffic=session hot=1 sys=512 "
           "think=40ms\n";
    out += phaseTraceRows(engine);
    out += summaryLine(report);
    char line[320];
    std::snprintf(
        line, sizeof(line),
        "# prefix admissions=%llu hits=%llu hitRate=%.4f "
        "tokDeduped=%llu pagesDeduped=%llu cow=%llu published=%llu "
        "reclaimed=%llu\n",
        static_cast<unsigned long long>(report.prefixAdmissions),
        static_cast<unsigned long long>(report.prefixHits),
        report.prefixHitRate,
        static_cast<unsigned long long>(report.prefixTokensDeduped),
        static_cast<unsigned long long>(report.prefixPagesDeduped),
        static_cast<unsigned long long>(report.prefixCowCopies),
        static_cast<unsigned long long>(report.prefixPagesPublished),
        static_cast<unsigned long long>(report.prefixPagesReclaimed));
    out += line;
    EXPECT_GT(report.prefixHits, 0u);
    EXPECT_GT(report.prefixPagesDeduped, 0u);
    testing::compareOrUpdateGolden(c.file, out);
}

} // namespace
} // namespace neupims
