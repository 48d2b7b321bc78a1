/**
 * @file
 * Serving-latency sweep (beyond the paper: dynamic load rather than
 * §8.1's warmed static batches): drives the closed-loop serving
 * engine across all four backends (NPU-only, NPU+PIM, NeuPIMs,
 * NeuPIMs+SBI), the three traffic models (poisson, bursty, replay)
 * and both datasets (ShareGPT, Alpaca) at three offered-load levels,
 * and emits BENCH_serving.json with p50/p95/p99 TTFT + end-to-end
 * latency and SLO-attainment curves per configuration.
 *
 * Load levels are fractions of the nominal per-dataset rate (roughly
 * the strongest backend's comfortable operating point), so 0.7x is a
 * lightly-loaded system, 1.4x runs past the weaker backends' knees,
 * and 2.8x drives every backend into queueing — the regime where the
 * four designs' batch growth, KV pressure and SLO tails separate.
 *
 * A second sweep compares prefill scheduling policies on the
 * strongest backend (NeuPIMs+SBI, poisson ShareGPT): whole-prompt
 * stall-the-world prefill against chunked prefill piggybacked onto
 * decode iterations at several chunk budgets, across the same offered
 * loads — emitting the TTFT decomposition (queueing + prefill +
 * first-decode percentiles) and decode TBT under "prefill_sweep" so
 * the chunking/piggybacking trade-off (lower tail TTFT vs bounded TBT
 * inflation) is visible in BENCH_serving.json.
 *
 * A third sweep compares memory-pressure policies on an over-capacity
 * device (KV capacity shrunk 6x, lengths clamped so every request
 * individually fits): PreemptConfig Off (legacy admission stall)
 * against Recompute and Swap eviction across three offered loads,
 * emitting p95 TTFT/TBT, preemption rate, swap traffic and drop
 * counts under "preempt_sweep" — the cost of pressure as a priced
 * event rather than a stall.
 *
 * A fourth sweep compares scheduling policies (fcfs, priority
 * classes with aging, SLO-EDF) on the same over-capacity device
 * under two priority-class arrival mixes across three offered loads,
 * emitting per-class TTFT percentiles and per-class SLO attainment
 * under "policy_sweep" — the differentiation the pluggable policy
 * API exists to buy (high classes hold their SLO while low classes
 * absorb the pressure).
 *
 * A fifth sweep injects faults (permanent channel failure, transient
 * brownout, straggler window, and a full "storm" with impatient
 * clients, retries and load shedding) on the over-capacity setup at
 * 1.5x load, emitting availability counters, time-to-recovery,
 * wasted work and goodput under "fault_sweep" — what graceful
 * degradation costs and recovers (DESIGN.md §10).
 *
 * A sixth sweep runs the cycle-accurate engine over the SBI grid
 * (batch 256-768 x sequence 512-1536) once per DRAM arbitration
 * policy (frfcfs, pim-frfcfs, paws), least-squares fits the analytic
 * model's SBI overlap hide fraction against the measured per-layer
 * periods, and emits per-point residuals plus the controller's
 * scheduling statistics (row-hit rate, stall/waste integrals, mode
 * switches) under "mem_sched_sweep" — the calibration evidence behind
 * calibratedSbiHideFraction (DESIGN.md §11).
 *
 * A seventh sweep compares the hybrid-fidelity iteration model
 * (sample every Nth boundary through the cycle-accurate engine plus
 * forced samples on composition changes, fast-forward the rest on
 * anchored analytic ratios) against the N = 1 full-event baseline on
 * the strongest backend, emitting per-N latency errors and the
 * engine-invocation cut under "hybrid_sweep" (DESIGN.md §12). Each
 * run's anchors live only for that run; nothing is written beside
 * the JSON. Wall-clock seconds print to stdout only — the JSON stays
 * deterministic for CI's full-content staleness compare.
 *
 * An eighth sweep turns refcounted copy-on-write KV page sharing
 * (the radix prefix index, DESIGN.md §13) off and on under
 * conversational session traffic (multi-turn prompts over a hot
 * shared system prompt) across hot-prefix fractions and offered
 * loads, emitting TTFT/TBT percentiles plus the prefix-cache
 * counters (hit rate, deduplicated tokens and pages, COW copies,
 * publications, reclaims) under "prefix_sweep" — what whole-page
 * prefix reuse buys on time-to-first-token.
 *
 * Environment: NEUPIMS_BENCH_FAST=1 shrinks the sweep;
 * NEUPIMS_BENCH_SEED overrides the workload seed (default 42).
 */

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/batch_builder.h"
#include "core/executor.h"
#include "core/iteration_model.h"
#include "core/serving_setup.h"
#include "dram/mem_sched.h"
#include "runtime/serving_engine.h"
#include "runtime/traffic.h"

using namespace neupims;

namespace {

/** Nominal capacity request rate per dataset (requests/second). */
double
nominalRate(const runtime::DatasetConfig &ds)
{
    return ds.name == "Alpaca" ? 440.0 : 64.0;
}

/** TTFT SLO budgets (ms) and per-token SLO budgets (ms/token). */
const std::vector<double> kTtftBudgetsMs = {10, 25, 50, 100, 250,
                                            500, 1000};
const std::vector<double> kPerTokenBudgetsMs = {5,  7.5, 10, 15,
                                                25, 50,  100};

void
emitJsonArray(std::FILE *f, const char *key,
              const std::vector<double> &values, const char *indent)
{
    std::fprintf(f, "%s\"%s\": [", indent, key);
    for (std::size_t i = 0; i < values.size(); ++i)
        std::fprintf(f, "%s%g", i ? ", " : "", values[i]);
    std::fprintf(f, "]");
}

void
emitLatency(std::FILE *f, const char *key,
            const runtime::LatencyStats &stats, double unit_scale,
            bool trailing_comma)
{
    std::fprintf(f,
                 "        \"%s\": {\"p50\": %.3f, \"p95\": %.3f, "
                 "\"p99\": %.3f, \"mean\": %.3f, \"max\": %.3f}%s\n",
                 key, stats.p50() * unit_scale,
                 stats.p95() * unit_scale, stats.p99() * unit_scale,
                 stats.mean() * unit_scale,
                 stats.maxValue() * unit_scale,
                 trailing_comma ? "," : "");
}

} // namespace

int
main()
{
    auto llm = model::gpt3_13b();
    int requests = 448;
    std::vector<double> loads = {0.7, 1.4, 2.8};
    if (bench::fastMode()) {
        requests = 128;
        loads = {1.4};
    }
    std::uint64_t seed = bench::benchSeed();

    std::printf("=== Serving latency under live traffic (%s, %d "
                "requests, seed %llu) ===\n\n",
                llm.name.c_str(), requests,
                static_cast<unsigned long long>(seed));
    std::printf("%-12s %-8s %-9s %5s %6s %9s | %8s %8s %8s | %8s | "
                "%s\n",
                "backend", "traffic", "dataset", "load", "batch",
                "tok/s", "ttft-p50", "ttft-p95", "ttft-p99",
                "e2e-p99", "SLO(ttft<100ms)");

    std::FILE *json = std::fopen("BENCH_serving.json", "w");
    if (!json)
        fatal("cannot open BENCH_serving.json for writing");
    std::fprintf(json,
                 "{\n  \"bench\": \"serving_latency\",\n"
                 "  \"model\": \"%s\",\n  \"requests\": %d,\n"
                 "  \"seed\": %llu,\n",
                 llm.name.c_str(), requests,
                 static_cast<unsigned long long>(seed));
    // Execution context: CI's staleness check requires build_type
    // "release". Nothing host-dependent goes here: CI compares the
    // whole file.
#ifdef NDEBUG
    const char *build_type = "release";
#else
    const char *build_type = "debug";
#endif
    std::fprintf(json, "  \"context\": {\"build_type\": \"%s\"},\n",
                 build_type);
    emitJsonArray(json, "ttft_budgets_ms", kTtftBudgetsMs, "  ");
    std::fprintf(json, ",\n");
    emitJsonArray(json, "per_token_budgets_ms", kPerTokenBudgetsMs,
                  "  ");
    std::fprintf(json, ",\n  \"configs\": [\n");

    bool first = true;
    for (const auto &backend : core::standardServingBackends()) {
        auto latency = core::makeIterationModel(backend.device, llm);
        for (const auto &ds_name : {"ShareGPT", "Alpaca"}) {
            auto ds = bench::datasetByName(ds_name);
            for (const auto &kind : runtime::standardTrafficKinds()) {
                for (double load : loads) {
                    double rate = nominalRate(ds) * load;
                    auto traffic = runtime::makeTraffic(
                        kind, ds, rate, requests, seed);
                    auto cfg =
                        core::servingConfigFor(backend.device, llm);
                    runtime::ServingEngine engine(cfg, *traffic,
                                                  *latency);
                    auto report = engine.run();

                    auto ttft_curve = report.ttftUs.attainmentCurve(
                        [&] {
                            std::vector<double> t;
                            for (double ms : kTtftBudgetsMs)
                                t.push_back(ms * 1e3); // us
                            return t;
                        }());
                    auto tok_curve = report.perTokenMs.attainmentCurve(
                        kPerTokenBudgetsMs);

                    std::printf(
                        "%-12s %-8s %-9s %4.1fx %6.1f %9.0f | %8.1f "
                        "%8.1f %8.1f | %8.0f | %5.1f%%\n",
                        backend.name.c_str(), kind.c_str(),
                        ds.name.c_str(), load, report.meanBatchSize,
                        report.tokensPerSecond(),
                        report.ttftUs.p50() / 1e3,
                        report.ttftUs.p95() / 1e3,
                        report.ttftUs.p99() / 1e3,
                        report.e2eUs.p99() / 1e3,
                        report.ttftUs.attainment(100e3) * 100.0);

                    std::fprintf(
                        json,
                        "%s    {\n      \"backend\": \"%s\", "
                        "\"traffic\": \"%s\", \"dataset\": \"%s\",\n"
                        "      \"load\": %.2f, \"rate_rps\": %.2f,\n"
                        "      \"completed\": %d, \"dropped\": %d, "
                        "\"makespan_ms\": %.3f,\n"
                        "      \"tokens_per_s\": %.1f, "
                        "\"mean_batch\": %.2f,\n",
                        first ? "" : ",\n", backend.name.c_str(),
                        kind.c_str(), ds.name.c_str(), load, rate,
                        report.requestsCompleted,
                        report.requestsDropped,
                        cyclesToMicros(report.makespanCycles) / 1e3,
                        report.tokensPerSecond(),
                        report.meanBatchSize);
                    emitLatency(json, "ttft_ms", report.ttftUs, 1e-3,
                                true);
                    emitLatency(json, "e2e_ms", report.e2eUs, 1e-3,
                                true);
                    emitLatency(json, "tbt_ms", report.tbtUs, 1e-3,
                                true);
                    emitLatency(json, "per_token_ms",
                                report.perTokenMs, 1.0, true);
                    std::vector<double> a1, a2;
                    for (const auto &p : ttft_curve)
                        a1.push_back(p.attainment);
                    for (const auto &p : tok_curve)
                        a2.push_back(p.attainment);
                    emitJsonArray(json, "ttft_slo_attainment", a1,
                                  "      ");
                    std::fprintf(json, ",\n");
                    emitJsonArray(json, "per_token_slo_attainment",
                                  a2, "      ");
                    std::fprintf(json, "\n    }");
                    first = false;
                }
            }
        }
    }
    std::fprintf(json, "\n  ],\n  \"prefill_sweep\": [\n");

    // --- Prefill-policy sweep: whole-prompt vs chunked+piggyback ---
    struct PrefillMode
    {
        const char *name;
        runtime::PrefillPolicy policy;
        int chunkTokens;
        bool piggyback;
    };
    const std::vector<PrefillMode> modes = {
        {"whole", runtime::PrefillPolicy::WholePrompt, 0, false},
        {"chunked-128", runtime::PrefillPolicy::Chunked, 128, true},
        {"chunked-256", runtime::PrefillPolicy::Chunked, 256, true},
        {"chunked-512", runtime::PrefillPolicy::Chunked, 512, true},
    };

    std::printf("\n=== Prefill scheduling sweep (NeuPIMs+SBI, "
                "poisson, ShareGPT) ===\n\n");
    std::printf("%-12s %5s | %8s %8s %8s | %8s %8s %8s | %7s %7s\n",
                "prefill", "load", "ttft-p50", "ttft-p95", "ttft-p99",
                "queue-95", "prefil-95", "1dec-95", "tbt-p50",
                "tbt-p95");

    const auto &backend = core::servingBackendByName("NeuPIMs+SBI");
    auto latency = core::makeIterationModel(backend.device, llm);
    auto ds = bench::datasetByName("ShareGPT");
    first = true;
    for (const auto &mode : modes) {
        for (double load : loads) {
            double rate = nominalRate(ds) * load;
            auto traffic = runtime::makeTraffic("poisson", ds, rate,
                                                requests, seed);
            auto cfg = core::servingConfigFor(backend.device, llm);
            cfg.scheduler.prefill.policy = mode.policy;
            if (mode.chunkTokens > 0)
                cfg.scheduler.prefill.chunkTokens = mode.chunkTokens;
            cfg.scheduler.prefill.piggyback = mode.piggyback;
            runtime::ServingEngine engine(cfg, *traffic, *latency);
            auto report = engine.run();

            std::printf(
                "%-12s %4.1fx | %8.1f %8.1f %8.1f | %8.1f %8.1f "
                "%8.1f | %7.2f %7.2f\n",
                mode.name, load, report.ttftUs.p50() / 1e3,
                report.ttftUs.p95() / 1e3, report.ttftUs.p99() / 1e3,
                report.queueUs.p95() / 1e3,
                report.prefillUs.p95() / 1e3,
                report.firstDecodeUs.p95() / 1e3,
                report.tbtUs.p50() / 1e3, report.tbtUs.p95() / 1e3);

            std::fprintf(
                json,
                "%s    {\n      \"prefill\": \"%s\", \"chunk\": %d, "
                "\"piggyback\": %s, \"load\": %.2f,\n"
                "      \"completed\": %d, \"tokens_per_s\": %.1f, "
                "\"mean_batch\": %.2f,\n",
                first ? "" : ",\n", mode.name, mode.chunkTokens,
                mode.piggyback ? "true" : "false", load,
                report.requestsCompleted, report.tokensPerSecond(),
                report.meanBatchSize);
            emitLatency(json, "ttft_ms", report.ttftUs, 1e-3, true);
            emitLatency(json, "ttft_queue_ms", report.queueUs, 1e-3,
                        true);
            emitLatency(json, "ttft_prefill_ms", report.prefillUs,
                        1e-3, true);
            emitLatency(json, "ttft_first_decode_ms",
                        report.firstDecodeUs, 1e-3, true);
            emitLatency(json, "tbt_ms", report.tbtUs, 1e-3, true);
            emitLatency(json, "e2e_ms", report.e2eUs, 1e-3, false);
            std::fprintf(json, "    }");
            first = false;
        }
    }

    std::fprintf(json, "\n  ],\n  \"preempt_sweep\": [\n");

    // --- Memory-pressure policy sweep: off vs recompute vs swap ----
    std::printf("\n=== Preemption policy sweep (NeuPIMs+SBI, poisson, "
                "ShareGPT, KV/6, maxlen 320) ===\n\n");
    std::printf("%-10s %5s | %8s %8s | %7s %7s | %7s %8s %5s %5s\n",
                "preempt", "load", "ttft-p95", "tbt-p95", "preempt",
                "per-req", "restore", "swap-MB", "drops", "done");

    std::vector<double> preempt_loads = {1.0, 1.5, 2.0};
    if (bench::fastMode())
        preempt_loads = {1.5};
    const std::vector<const char *> preempt_modes = {"off", "recompute",
                                                     "swap"};
    auto pds = bench::datasetByName("ShareGPT");
    pds.maxLength = 320; // every request fits the shrunk channel
    const double preempt_base_rate = 180.0;
    first = true;
    for (const char *mode : preempt_modes) {
        for (double load : preempt_loads) {
            double rate = preempt_base_rate * load;
            auto traffic = runtime::makeTraffic("poisson", pds, rate,
                                                requests, seed);
            auto cfg = core::servingConfigFor(backend.device, llm);
            core::ServingOptions sopt;
            sopt.preempt = mode;
            sopt.kvScale = 6;
            core::applyServingOptions(cfg, sopt);
            runtime::ServingEngine engine(cfg, *traffic, *latency);
            auto report = engine.run();

            double preempt_rate =
                report.requestsCompleted > 0
                    ? static_cast<double>(report.preemptions) /
                          static_cast<double>(report.requestsCompleted)
                    : 0.0;
            double swap_mb =
                static_cast<double>(report.swapOutBytes +
                                    report.swapInBytes) /
                1e6;
            std::printf(
                "%-10s %4.1fx | %8.1f %8.2f | %7llu %7.2f | %7.1f "
                "%8.1f %5d %5d\n",
                mode, load, report.ttftUs.p95() / 1e3,
                report.tbtUs.p95() / 1e3,
                static_cast<unsigned long long>(report.preemptions),
                preempt_rate, report.restoreUs.p95() / 1e3, swap_mb,
                report.requestsDropped, report.requestsCompleted);

            std::fprintf(
                json,
                "%s    {\n      \"preempt\": \"%s\", \"victim\": "
                "\"lifo\", \"load\": %.2f, \"rate_rps\": %.2f,\n"
                "      \"completed\": %d, \"dropped\": %d, "
                "\"preemptions\": %llu, \"restores\": %llu,\n"
                "      \"requests_preempted\": %d, "
                "\"preempt_rate\": %.4f,\n"
                "      \"pages_evicted\": %llu, "
                "\"swap_out_mb\": %.2f, \"swap_in_mb\": %.2f,\n"
                "      \"preempted_total_ms\": %.3f,\n"
                "      \"tokens_per_s\": %.1f, \"mean_batch\": %.2f,\n",
                first ? "" : ",\n", mode, load, rate,
                report.requestsCompleted, report.requestsDropped,
                static_cast<unsigned long long>(report.preemptions),
                static_cast<unsigned long long>(report.restores),
                report.requestsPreempted, preempt_rate,
                static_cast<unsigned long long>(report.kvPagesEvicted),
                static_cast<double>(report.swapOutBytes) / 1e6,
                static_cast<double>(report.swapInBytes) / 1e6,
                report.preemptedUs.sum() * 1e-3,
                report.tokensPerSecond(), report.meanBatchSize);
            emitLatency(json, "ttft_ms", report.ttftUs, 1e-3, true);
            emitLatency(json, "tbt_ms", report.tbtUs, 1e-3, true);
            emitLatency(json, "restore_ms", report.restoreUs, 1e-3,
                        true);
            emitLatency(json, "preempted_span_ms", report.preemptedUs,
                        1e-3, true);
            emitLatency(json, "e2e_ms", report.e2eUs, 1e-3, false);
            std::fprintf(json, "    }");
            first = false;
        }
    }

    std::fprintf(json, "\n  ],\n  \"policy_sweep\": [\n");

    // --- Scheduling-policy sweep: fcfs vs priority vs edf ----------
    std::printf("\n=== Scheduling-policy sweep (NeuPIMs+SBI, poisson, "
                "ShareGPT, KV/6, maxlen 320, recompute) ===\n\n");
    std::printf("%-9s %-11s %5s | %8s %8s | %8s %8s | %7s %7s | %s\n",
                "policy", "classes", "load", "ttft-p95", "tbt-p95",
                "hi-ttft95", "lo-ttft95", "hi-slo", "lo-slo", "done");

    const std::vector<const char *> policies = {"fcfs", "priority",
                                                "edf"};
    const std::vector<const char *> mixes = {"two-tier", "three-tier"};
    std::vector<double> policy_loads = {1.0, 1.5, 2.0};
    if (bench::fastMode())
        policy_loads = {1.5};
    first = true;
    for (const char *policy : policies) {
        for (const char *mix : mixes) {
            for (double load : policy_loads) {
                double rate = preempt_base_rate * load;
                auto traffic = runtime::makeTraffic("poisson", pds,
                                                    rate, requests,
                                                    seed);
                traffic->setClassMix(runtime::classMixByName(mix),
                                     seed);
                auto cfg = core::servingConfigFor(backend.device, llm);
                core::ServingOptions sopt;
                sopt.preempt = "recompute";
                sopt.policy = policy;
                sopt.kvScale = 6;
                core::applyServingOptions(cfg, sopt);
                runtime::ServingEngine engine(cfg, *traffic, *latency);
                auto report = engine.run();

                // Highest and lowest class present, for the table.
                const auto &lo = report.classes.front();
                const auto &hi = report.classes.back();
                std::printf(
                    "%-9s %-11s %4.1fx | %8.1f %8.2f | %8.1f %8.1f | "
                    "%6.1f%% %6.1f%% | %d\n",
                    policy, mix, load, report.ttftUs.p95() / 1e3,
                    report.tbtUs.p95() / 1e3, hi.ttftUs.p95() / 1e3,
                    lo.ttftUs.p95() / 1e3, hi.ttftAttainment * 100.0,
                    lo.ttftAttainment * 100.0,
                    report.requestsCompleted);

                std::fprintf(
                    json,
                    "%s    {\n      \"policy\": \"%s\", \"classes\": "
                    "\"%s\", \"load\": %.2f, \"rate_rps\": %.2f,\n"
                    "      \"completed\": %d, \"dropped\": %d, "
                    "\"preemptions\": %llu,\n"
                    "      \"tokens_per_s\": %.1f, "
                    "\"mean_batch\": %.2f,\n",
                    first ? "" : ",\n", policy, mix, load, rate,
                    report.requestsCompleted, report.requestsDropped,
                    static_cast<unsigned long long>(
                        report.preemptions),
                    report.tokensPerSecond(), report.meanBatchSize);
                emitLatency(json, "ttft_ms", report.ttftUs, 1e-3,
                            true);
                emitLatency(json, "tbt_ms", report.tbtUs, 1e-3, true);
                emitLatency(json, "e2e_ms", report.e2eUs, 1e-3, true);
                std::fprintf(json, "      \"class_breakdown\": [\n");
                for (std::size_t i = 0; i < report.classes.size();
                     ++i) {
                    const auto &cls = report.classes[i];
                    std::fprintf(
                        json,
                        "        {\"class\": %d, \"submitted\": %d, "
                        "\"completed\": %d, \"preempted\": %d,\n"
                        "         \"ttft_p50_ms\": %.3f, "
                        "\"ttft_p95_ms\": %.3f, "
                        "\"e2e_p95_ms\": %.3f,\n"
                        "         \"tbt_p95_ms\": %.3f, "
                        "\"slo_ttft\": %.4f, \"slo_tpt\": %.4f}%s\n",
                        cls.priorityClass, cls.submitted,
                        cls.completed, cls.preempted,
                        cls.ttftUs.p50() * 1e-3,
                        cls.ttftUs.p95() * 1e-3,
                        cls.e2eUs.p95() * 1e-3,
                        cls.tbtUs.p95() * 1e-3, cls.ttftAttainment,
                        cls.tptAttainment,
                        i + 1 < report.classes.size() ? "," : "");
                }
                std::fprintf(json, "      ]\n    }");
                first = false;
            }
        }
    }

    std::fprintf(json, "\n  ],\n  \"fault_sweep\": [\n");

    // --- Fault/degradation sweep: availability under injected
    // failures (DESIGN.md §10) on the over-capacity setup at 1.5x
    // load, recompute preemption — the regime where losing a channel
    // actually hurts.
    std::printf("\n=== Fault/degradation sweep (NeuPIMs+SBI, poisson, "
                "ShareGPT, KV/6, maxlen 320, 1.5x, recompute) ===\n\n");
    std::printf("%-10s | %5s %5s %5s %5s | %8s %8s | %9s %9s | %8s\n",
                "scenario", "done", "tmout", "shed", "retry",
                "ttft-p95", "e2e-p95", "recov-ms", "waste-tok",
                "goodput");

    struct FaultScenario
    {
        const char *name;
        const char *fault;
        double clientTimeoutMs;
        int retries;
        double shedWatermark;
        double shedWaitMs;
    };
    std::vector<FaultScenario> scenarios = {
        {"none", "", 0.0, 0, 0.0, 0.0},
        {"fail", "fail:40", 0.0, 0, 0.0, 0.0},
        {"brownout", "brownout:30:2:25", 0.0, 0, 0.0, 0.0},
        {"straggler", "straggler:20:-1:80:3.0", 0.0, 0, 0.0, 0.0},
        {"storm", "fail:40", 600.0, 2, 0.05, 400.0},
    };
    if (bench::fastMode())
        scenarios = {scenarios[0], scenarios[1], scenarios[4]};
    first = true;
    for (const auto &sc : scenarios) {
        double rate = preempt_base_rate * 1.5;
        auto traffic = runtime::makeTraffic("poisson", pds, rate,
                                            requests, seed);
        if (sc.clientTimeoutMs > 0)
            traffic->setClientTimeout(
                static_cast<Cycle>(sc.clientTimeoutMs * 1e6));
        auto cfg = core::servingConfigFor(backend.device, llm);
        core::ServingOptions sopt;
        sopt.preempt = "recompute";
        sopt.kvScale = 6;
        sopt.fault = sc.fault;
        sopt.faultSeed = seed;
        sopt.retries = sc.retries;
        sopt.shedWatermark = sc.shedWatermark;
        sopt.shedWaitMs = sc.shedWaitMs;
        core::applyServingOptions(cfg, sopt);
        runtime::ServingEngine engine(cfg, *traffic, *latency);
        auto report = engine.run();

        std::printf(
            "%-10s | %5d %5d %5d %5d | %8.1f %8.0f | %9.1f %9llu | "
            "%8.0f\n",
            sc.name, report.requestsCompleted, report.requestsTimedOut,
            report.requestsShed, report.requestsRetried,
            report.ttftUs.p95() / 1e3, report.e2eUs.p95() / 1e3,
            report.recoveryUs.maxValue() / 1e3,
            static_cast<unsigned long long>(report.wastedTokens),
            report.goodputTokensPerSecond());

        std::fprintf(
            json,
            "%s    {\n      \"scenario\": \"%s\", \"fault\": \"%s\", "
            "\"client_timeout_ms\": %.1f,\n"
            "      \"retries\": %d, \"shed_watermark\": %.3f, "
            "\"shed_wait_ms\": %.1f,\n"
            "      \"completed\": %d, \"timed_out\": %d, "
            "\"shed\": %d, \"retried\": %d,\n"
            "      \"channels_failed\": %d, \"brownouts\": %d, "
            "\"fault_preemptions\": %llu, \"kv_pages_lost\": %llu,\n"
            "      \"wasted_tokens\": %llu, "
            "\"recovery_ms_max\": %.3f, \"recovery_events\": %d,\n"
            "      \"in_slo\": %d, \"goodput_tokens_per_s\": %.1f, "
            "\"tokens_per_s\": %.1f,\n",
            first ? "" : ",\n", sc.name, sc.fault, sc.clientTimeoutMs,
            sc.retries, sc.shedWatermark, sc.shedWaitMs,
            report.requestsCompleted, report.requestsTimedOut,
            report.requestsShed, report.requestsRetried,
            report.channelsFailed, report.channelsBrownedOut,
            static_cast<unsigned long long>(report.faultPreemptions),
            static_cast<unsigned long long>(report.kvPagesLost),
            static_cast<unsigned long long>(report.wastedTokens),
            report.recoveryUs.maxValue() * 1e-3,
            static_cast<int>(report.recoveryUs.count()),
            report.requestsInSlo, report.goodputTokensPerSecond(),
            report.tokensPerSecond());
        emitLatency(json, "ttft_ms", report.ttftUs, 1e-3, true);
        emitLatency(json, "e2e_ms", report.e2eUs, 1e-3, false);
        std::fprintf(json, "    }");
        first = false;
    }

    std::fprintf(json, "\n  ],\n  \"mem_sched_sweep\": [\n");

    // --- Memory-scheduler sweep: engine grid, hide-fraction fit ----
    // For each arbitration policy, measure the SBI per-layer period
    // on the engine grid and report two analytic recalibrations
    // against it: (a) the best CONSTANT hide fraction — a linear
    // least-squares fit E ~= a*serial - b*hideable, f = b/a — whose
    // residual shows why no constant closes the gap, and (b) the
    // per-point effective fractions f_eff = (serial - E)/hideable
    // that the calibrated surface in calibratedSbiHideFraction
    // hardcodes, evaluated through the shipping model (surface +
    // anchor calibration at the first grid point).
    std::printf("\n=== Memory-scheduler sweep (NeuPIMs+SBI engine "
                "grid, %s) ===\n\n",
                llm.name.c_str());
    std::printf("%-11s %5s %5s | %10s %6s | %7s %7s | %7s %9s %9s "
                "%6s\n",
                "sched", "batch", "seq", "meas/lyr", "f-eff",
                "r-const", "r-surf", "row-hit", "pim-stall",
                "pim-waste", "mode");

    std::vector<int> grid_batches = {256, 384, 512, 768};
    std::vector<int> grid_seqs = {512, 1024, 1536};
    if (bench::fastMode()) {
        grid_batches = {256, 512};
        grid_seqs = {512, 1024};
    }
    const int sbi_layers = llm.layersPerDevice(llm.defaultPp);
    const std::vector<dram::MemSchedKind> kinds = {
        dram::MemSchedKind::FrFcfs, dram::MemSchedKind::PimFrFcfs,
        dram::MemSchedKind::Paws};
    first = true;
    for (auto kind : kinds) {
        auto dev = backend.device; // NeuPIMs+SBI
        dev.memSched.kind = kind;
        dev.flags.channelSymmetry = true; // bit-identical fast path
        const char *sched_name = dram::memSchedKindName(kind);
        core::AnalyticIterationModel analytic(dev, llm, llm.defaultTp,
                                              sbi_layers);

        struct GridPoint
        {
            int batch, seq;
            double measured; // engine per-layer period
            double serial, hideable;
            double rowHit, bankUtil;
            dram::MemSchedStats stats;
        };
        std::vector<GridPoint> pts;
        double sum_ss = 0, sum_sm = 0, sum_mm = 0;
        double sum_es = 0, sum_em = 0;
        for (int b : grid_batches) {
            for (int s : grid_seqs) {
                auto comp =
                    core::uniformComposition(b, s, dev.org.channels);
                core::DeviceExecutor exec(dev, llm, llm.defaultTp,
                                          sbi_layers);
                auto res = exec.runIteration(comp, 3, 1);
                GridPoint p;
                p.batch = b;
                p.seq = s;
                p.measured = static_cast<double>(res.perLayerCycles);
                analytic.sbiComponents(comp, p.serial, p.hideable);
                p.rowHit = res.rowHitRate;
                p.bankUtil = res.memBankUtil;
                p.stats = res.memSched;
                sum_ss += p.serial * p.serial;
                sum_sm += p.serial * p.hideable;
                sum_mm += p.hideable * p.hideable;
                sum_es += p.measured * p.serial;
                sum_em += p.measured * p.hideable;
                pts.push_back(p);
            }
        }

        // Normal equations of E = a*s - b*m:
        //   a*sum_ss - b*sum_sm = sum_es
        //   a*sum_sm - b*sum_mm = sum_em
        double det = sum_sm * sum_sm - sum_ss * sum_mm;
        double fit_a = 1.0, fit_b = 0.25;
        if (std::fabs(det) > 1e-9) {
            fit_a = (sum_sm * sum_em - sum_mm * sum_es) / det;
            fit_b = (sum_ss * sum_em - sum_sm * sum_es) / det;
        }
        double fitted =
            fit_a > 0 ? std::min(1.0, std::max(0.0, fit_b / fit_a))
                      : 0.25;

        // Shipping model: calibrated surface + scale anchor.
        analytic.setScale(1.0);
        analytic.calibrate(grid_batches.front(), grid_seqs.front());

        double max_const = 0.0, max_surf = 0.0;
        std::vector<double> r_const(pts.size()), r_surf(pts.size()),
            f_eff(pts.size());
        for (std::size_t i = 0; i < pts.size(); ++i) {
            const auto &p = pts[i];
            auto comp = core::uniformComposition(p.batch, p.seq,
                                                 dev.org.channels);
            double pred_const =
                fit_a * p.serial - fit_b * p.hideable;
            double pred_surf = static_cast<double>(
                analytic.perLayerCyclesFor(comp));
            r_const[i] = pred_const / p.measured - 1.0;
            r_surf[i] = pred_surf / p.measured - 1.0;
            f_eff[i] = p.hideable > 0
                           ? (p.serial - p.measured) / p.hideable
                           : 0.0;
            max_const = std::max(max_const, std::fabs(r_const[i]));
            max_surf = std::max(max_surf, std::fabs(r_surf[i]));
            std::printf(
                "%-11s %5d %5d | %10.0f %6.3f | %+6.2f%% %+6.2f%% | "
                "%6.1f%% %9llu %9llu %6llu\n",
                sched_name, p.batch, p.seq, p.measured, f_eff[i],
                r_const[i] * 100.0, r_surf[i] * 100.0,
                p.rowHit * 100.0,
                static_cast<unsigned long long>(
                    p.stats.pimStallCycles),
                static_cast<unsigned long long>(
                    p.stats.pimWasteCycles),
                static_cast<unsigned long long>(
                    p.stats.modeSwitches));
        }
        std::printf("%-11s best constant f %.4f leaves max residual "
                    "%.2f%%; calibrated surface %.2f%%\n",
                    sched_name, fitted, max_const * 100.0,
                    max_surf * 100.0);

        std::fprintf(
            json,
            "%s    {\n      \"sched\": \"%s\", "
            "\"const_fit_hide_fraction\": %.4f,\n"
            "      \"const_fit_max_residual_pct\": %.3f, "
            "\"surface_max_residual_pct\": %.3f,\n"
            "      \"anchor\": {\"batch\": %d, \"seq\": %d},\n"
            "      \"points\": [\n",
            first ? "" : ",\n", sched_name, fitted,
            max_const * 100.0, max_surf * 100.0,
            grid_batches.front(), grid_seqs.front());
        for (std::size_t i = 0; i < pts.size(); ++i) {
            const auto &p = pts[i];
            std::fprintf(
                json,
                "        {\"batch\": %d, \"seq\": %d, "
                "\"measured_per_layer\": %.0f, "
                "\"effective_hide_fraction\": %.4f,\n"
                "         \"const_residual_pct\": %.3f, "
                "\"surface_residual_pct\": %.3f,\n"
                "         \"row_hit_rate\": %.4f, \"mem_bank_util\": "
                "%.4f, \"pim_stall_cycles\": %llu,\n"
                "         \"pim_waste_cycles\": %llu, "
                "\"mode_switches\": %llu}%s\n",
                p.batch, p.seq, p.measured, f_eff[i],
                r_const[i] * 100.0, r_surf[i] * 100.0, p.rowHit,
                p.bankUtil,
                static_cast<unsigned long long>(p.stats.pimStallCycles),
                static_cast<unsigned long long>(p.stats.pimWasteCycles),
                static_cast<unsigned long long>(p.stats.modeSwitches),
                i + 1 < pts.size() ? "," : "");
        }
        std::fprintf(json, "      ]\n    }");
        first = false;
    }

    std::fprintf(json, "\n  ],\n  \"hybrid_sweep\": [\n");

    // --- Hybrid-fidelity sweep: sampled engine vs full-event -------
    // N = 1 prices every iteration on the cycle-accurate engine (the
    // full-event baseline); larger N samples every Nth boundary plus
    // forced samples on composition changes and fast-forwards the
    // rest on anchored measured/analytic ratios. Two speedup ratios,
    // both deterministic (raw seconds print to stdout only):
    // full_event_cut = iterations / engine invocations — the
    // wall-clock cut vs pricing *every* iteration through the engine,
    // since an invocation costs the same either way — and
    // engine_run_cut, the invocation cut vs the N = 1 run (whose
    // composition cache already skips repeat compositions, so its
    // baseline is lower). Two configurations:
    // the standard device at 1.4x, and the over-capacity policy-grid
    // config (KV/6, maxlen 320, recompute, fcfs) where preemptions
    // drive the forced-sample path.
    struct HybridConfig
    {
        const char *name;
        bool policy_grid;
        double rate;
    };
    const std::vector<HybridConfig> hybrid_cfgs = {
        {"standard-1.4x", false, nominalRate(ds) * 1.4},
        {"policy-grid-1.5x", true, preempt_base_rate * 1.5},
    };
    const std::vector<int> sample_every = {1, 8, 16};
    first = true;
    for (const auto &hc : hybrid_cfgs) {
        std::printf("\n=== Hybrid-fidelity sweep (NeuPIMs+SBI, "
                    "poisson, ShareGPT, %s) ===\n\n",
                    hc.name);
        std::printf(
            "%-5s | %8s %8s %8s | %7s %6s %7s | %8s %6s %6s | %7s\n",
            "every", "ttft-p95", "tbt-p95", "e2e-p99", "sampled",
            "forced", "fastfwd", "eng-runs", "evcut", "memcut",
            "wall-s");

        double base_ttft95 = 0, base_tbt95 = 0, base_e2e99 = 0;
        std::uint64_t base_runs = 0;
        for (int every : sample_every) {
            auto traffic = runtime::makeTraffic(
                "poisson", hc.policy_grid ? pds : ds, hc.rate,
                requests, seed);
            auto cfg = core::servingConfigFor(backend.device, llm);
            if (hc.policy_grid) {
                core::ServingOptions sopt;
                sopt.preempt = "recompute";
                sopt.policy = "fcfs";
                sopt.kvScale = 6;
                core::applyServingOptions(cfg, sopt);
            }
            auto hybrid = core::makeHybridIterationModel(
                backend.device, llm, every);
            runtime::ServingEngine engine(cfg, *traffic, *hybrid);
            auto t0 = std::chrono::steady_clock::now();
            auto report = engine.run();
            double wall_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();

            if (every == 1) {
                base_ttft95 = report.ttftUs.p95();
                base_tbt95 = report.tbtUs.p95();
                base_e2e99 = report.e2eUs.p99();
                base_runs = hybrid->executorRuns();
            }
            auto err_pct = [](double v, double base) {
                return base > 0 ? (v / base - 1.0) * 100.0 : 0.0;
            };
            double err_ttft = err_pct(report.ttftUs.p95(), base_ttft95);
            double err_tbt = err_pct(report.tbtUs.p95(), base_tbt95);
            double err_e2e = err_pct(report.e2eUs.p99(), base_e2e99);
            std::uint64_t iters = hybrid->sampledIterations() +
                                  hybrid->fastForwarded();
            double ev_cut =
                hybrid->executorRuns() > 0
                    ? static_cast<double>(iters) /
                          static_cast<double>(hybrid->executorRuns())
                    : 0.0;
            double mem_cut =
                hybrid->executorRuns() > 0
                    ? static_cast<double>(base_runs) /
                          static_cast<double>(hybrid->executorRuns())
                    : 0.0;

            std::printf(
                "%5d | %8.1f %8.2f %8.0f | %7llu %6llu %7llu | %8llu "
                "%5.1fx %5.1fx | %7.2f\n",
                every, report.ttftUs.p95() / 1e3,
                report.tbtUs.p95() / 1e3, report.e2eUs.p99() / 1e3,
                static_cast<unsigned long long>(
                    hybrid->sampledIterations()),
                static_cast<unsigned long long>(
                    hybrid->forcedSamples()),
                static_cast<unsigned long long>(
                    hybrid->fastForwarded()),
                static_cast<unsigned long long>(hybrid->executorRuns()),
                ev_cut, mem_cut, wall_s);

            std::fprintf(
                json,
                "%s    {\n      \"config\": \"%s\", "
                "\"sample_every\": %d, \"completed\": %d, "
                "\"tokens_per_s\": %.1f,\n"
                "      \"sampled\": %llu, \"forced_samples\": %llu, "
                "\"fast_forwarded\": %llu, \"ff_cache_hits\": %llu,\n"
                "      \"engine_runs\": %llu, "
                "\"full_event_cut\": %.3f, "
                "\"engine_run_cut\": %.3f, \"anchors\": %d,\n"
                "      \"ttft_p95_ms\": %.3f, "
                "\"ttft_p95_err_pct\": %.3f,\n"
                "      \"tbt_p95_ms\": %.3f, "
                "\"tbt_p95_err_pct\": %.3f,\n"
                "      \"e2e_p99_ms\": %.3f, "
                "\"e2e_p99_err_pct\": %.3f\n"
                "    }",
                first ? "" : ",\n", hc.name, every,
                report.requestsCompleted, report.tokensPerSecond(),
                static_cast<unsigned long long>(
                    hybrid->sampledIterations()),
                static_cast<unsigned long long>(
                    hybrid->forcedSamples()),
                static_cast<unsigned long long>(
                    hybrid->fastForwarded()),
                static_cast<unsigned long long>(
                    hybrid->fastForwardCacheHits()),
                static_cast<unsigned long long>(hybrid->executorRuns()),
                ev_cut, mem_cut,
                static_cast<int>(hybrid->anchorCount()),
                report.ttftUs.p95() * 1e-3, err_ttft,
                report.tbtUs.p95() * 1e-3, err_tbt,
                report.e2eUs.p99() * 1e-3, err_e2e);
            first = false;
        }
    }

    std::fprintf(json, "\n  ],\n  \"prefix_sweep\": [\n");

    // --- Shared-prefix KV sweep: COW page sharing off vs on --------
    // Conversational session traffic (multi-turn prompts over a hot
    // system prompt, DESIGN.md §13) on the strongest backend with
    // recompute preemption, across hot-prefix fractions and offered
    // loads. The off arm prices every prefill token from scratch;
    // the on arm binds whole cached pages by reference and prices
    // only the uncached suffix plus a prefix-read term — the TTFT
    // gap plus the dedup counters are what the radix index buys.
    struct PrefixArm
    {
        const char *name;
        bool share;
    };
    const std::vector<PrefixArm> prefix_arms = {{"share-off", false},
                                                {"share-on", true}};
    const std::vector<double> hot_fractions = {0.5, 1.0};
    std::vector<double> prefix_rates = {192.0, 384.0, 576.0};
    if (bench::fastMode())
        prefix_rates = {384.0};

    std::printf("\n=== Shared-prefix KV sweep (NeuPIMs+SBI, session, "
                "ShareGPT, sys 1536, turns 8, recompute) ===\n\n");
    std::printf("%-10s %4s %5s | %8s %8s | %7s | %5s %6s %8s %8s | "
                "%5s\n",
                "sharing", "hot", "rps", "ttft-p50", "ttft-p95",
                "tbt-p95", "hit%", "pages", "tok-dedup", "publish",
                "drops");

    first = true;
    for (const auto &arm : prefix_arms) {
        for (double hot : hot_fractions) {
            for (double prate : prefix_rates) {
                runtime::SessionTrafficConfig scfg;
                scfg.hotFraction = hot;
                scfg.systemPromptTokens = 1536;
                scfg.meanTurns = 8.0;
                scfg.thinkMs = 80.0;
                auto traffic = runtime::makeSessionTraffic(
                    ds, prate, requests, seed, scfg);
                auto cfg = core::servingConfigFor(backend.device, llm);
                core::ServingOptions sopt;
                sopt.preempt = "recompute";
                sopt.prefixShare = arm.share;
                core::applyServingOptions(cfg, sopt);
                runtime::ServingEngine engine(cfg, *traffic, *latency);
                auto report = engine.run();

                std::printf(
                    "%-10s %4.2f %5.0f | %8.1f %8.1f | %7.2f | "
                    "%4.0f%% %6llu %8llu %8llu | %5d\n",
                    arm.name, hot, prate, report.ttftUs.p50() / 1e3,
                    report.ttftUs.p95() / 1e3,
                    report.tbtUs.p95() / 1e3,
                    report.prefixHitRate * 100.0,
                    static_cast<unsigned long long>(
                        report.prefixPagesDeduped),
                    static_cast<unsigned long long>(
                        report.prefixTokensDeduped),
                    static_cast<unsigned long long>(
                        report.prefixPagesPublished),
                    report.requestsDropped);

                std::fprintf(
                    json,
                    "%s    {\n      \"sharing\": \"%s\", "
                    "\"hot_fraction\": %.2f, \"rate_rps\": %.0f, "
                    "\"completed\": %d, \"dropped\": %d,\n"
                    "      \"tokens_per_s\": %.1f, "
                    "\"mean_batch\": %.2f, \"preemptions\": %llu,\n"
                    "      \"prefix_admissions\": %llu, "
                    "\"prefix_hits\": %llu, \"hit_rate\": %.4f,\n"
                    "      \"tokens_deduped\": %llu, "
                    "\"pages_deduped\": %llu, \"cow_copies\": %llu, "
                    "\"pages_published\": %llu, "
                    "\"pages_reclaimed\": %llu,\n",
                    first ? "" : ",\n", arm.name, hot, prate,
                    report.requestsCompleted, report.requestsDropped,
                    report.tokensPerSecond(), report.meanBatchSize,
                    static_cast<unsigned long long>(
                        report.preemptions),
                    static_cast<unsigned long long>(
                        report.prefixAdmissions),
                    static_cast<unsigned long long>(
                        report.prefixHits),
                    report.prefixHitRate,
                    static_cast<unsigned long long>(
                        report.prefixTokensDeduped),
                    static_cast<unsigned long long>(
                        report.prefixPagesDeduped),
                    static_cast<unsigned long long>(
                        report.prefixCowCopies),
                    static_cast<unsigned long long>(
                        report.prefixPagesPublished),
                    static_cast<unsigned long long>(
                        report.prefixPagesReclaimed));
                emitLatency(json, "ttft_ms", report.ttftUs, 1e-3,
                            true);
                emitLatency(json, "tbt_ms", report.tbtUs, 1e-3, true);
                emitLatency(json, "e2e_ms", report.e2eUs, 1e-3,
                            false);
                std::fprintf(json, "    }");
                first = false;
            }
        }
    }

    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_serving.json\n");
    return 0;
}
