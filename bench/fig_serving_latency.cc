/**
 * @file
 * Serving-latency sweeps (beyond the paper: dynamic load rather than
 * §8.1's warmed static batches). Eight sweeps drive the closed-loop
 * serving engine on GPT3-13B and emit BENCH_serving.json. A sweep is
 * data: one group of specs (a spec is one serving run, assembled by
 * core::setupServingRun, plus the labels of its row) and one column
 * list that prints both the stdout table row and the JSON object. A
 * spec's rows and objects depend on that spec alone, so the outputs
 * of any subsets of specs, concatenated in spec order, reproduce the
 * file. Each sweep's rationale sits beside its specs.
 *
 * Environment: NEUPIMS_BENCH_FAST=1 runs each sweep's fast subset,
 * kept beside its full lists; NEUPIMS_BENCH_SEED overrides the
 * workload seed (default 42). Both are checked before any run.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "columns.h"
#include "core/iteration_model.h"
#include "core/serving_setup.h"
#include "runtime/serving_engine.h"

using namespace neupims;
using namespace neupims::bench;

namespace {

const model::LlmConfig kLlm = model::gpt3_13b();

/** TTFT SLO budgets (ms) and per-token SLO budgets (ms/token). */
const std::vector<double> kTtftBudgetsMs = {10, 25, 50, 100, 250,
                                            500, 1000};
const std::vector<double> kPerTokenBudgetsMs = {5,  7.5, 10, 15,
                                                25, 50,  100};

// --- specs: one serving run plus the labels of its row --------------

struct Spec
{
    std::string backend;
    const char *name; ///< mode, policy, scenario, arm or config
    double load;      ///< multiple of the sweep's base rate
    core::ServingRun run;
};

/**
 * A sweep: its JSON array, its stdout title ("" when each spec prints
 * its own), its specs, and either the columns of a spec's one
 * analytic serving run or a function that runs the spec itself.
 */
struct Sweep
{
    const char *key;
    std::string title;
    std::vector<Spec> specs = {};
    Cols (*columns)(const Spec &, const runtime::ServingReport &) = nullptr;
    Output (*run)(const Spec &) = nullptr;
};

/** @p full, or its subset @p fast under NEUPIMS_BENCH_FAST=1. */
template <typename T>
std::vector<T>
pick(std::vector<T> full, std::vector<T> fast)
{
    return bench::fastMode() ? fast : full;
}

/**
 * Poisson ShareGPT traffic at @p rate requests/s on NeuPIMs+SBI, with
 * recompute preemption: without preemption a run whose KV cache fills
 * stops, and the full sweeps' busiest ShareGPT runs fill it.
 */
Spec
spec(const char *name, double load, double rate)
{
    Spec s{"NeuPIMs+SBI", name, load, {}};
    s.run.rate = rate;
    s.run.requests = bench::fastMode() ? 128 : 448;
    s.run.seed = s.run.options.faultSeed = bench::benchSeed();
    s.run.options.preempt = "recompute";
    return s;
}

/** Nominal capacity request rate per dataset (requests/second). */
double
nominalRate(const std::string &dataset)
{
    return dataset == "Alpaca" ? 440.0 : 64.0;
}

/**
 * The over-capacity device of the pressure sweeps: KV capacity shrunk
 * 6x, lengths clamped to 320 so every request individually fits a
 * channel, at @p load x 180 requests/s.
 */
Spec
pressured(const char *name, double load)
{
    Spec s = spec(name, load, 180.0 * load);
    s.run.maxLen = 320;
    s.run.options.kvScale = 6;
    return s;
}

/** Serve @p s on its backend's analytic iteration model. */
runtime::ServingReport
serve(const Spec &s)
{
    const auto &dev = core::servingBackendByName(s.backend).device;
    auto setup = core::setupServingRun(dev, kLlm, s.run);
    auto latency = core::makeIterationModel(dev, kLlm);
    runtime::ServingEngine engine(setup.config, *setup.traffic, *latency);
    return engine.run();
}

// --- configs: every backend x traffic model x dataset x load -------
//
// All four backends (NPU-only, NPU+PIM, NeuPIMs, NeuPIMs+SBI), the
// three traffic models (poisson, bursty, replay) and both datasets at
// three offered loads: p50/p95/p99 TTFT and end-to-end latency plus
// SLO-attainment curves per configuration. Loads are multiples of the
// nominal per-dataset rate (roughly the strongest backend's
// comfortable operating point), so 0.7x is a lightly-loaded system,
// 1.4x runs past the weaker backends' knees, and 2.8x drives every
// backend into queueing — the regime where the four designs' batch
// growth, KV pressure and SLO tails separate.

Sweep
configSweep()
{
    const core::ServingRun base = spec("", 0, 0).run;
    Sweep sw{"configs", "Serving latency under live traffic (" + kLlm.name +
                            ", " + std::to_string(base.requests) +
                            " requests, seed " + std::to_string(base.seed) +
                            ", recompute)"};
    for (const auto &backend : core::standardServingBackends())
        for (const char *ds : {"ShareGPT", "Alpaca"})
            for (const auto &kind : runtime::standardTrafficKinds())
                for (double load : pick<double>({0.7, 1.4, 2.8}, {1.4})) {
                    Spec &s = sw.specs.emplace_back(
                        spec("", load, nominalRate(ds) * load));
                    s.backend = backend.name;
                    s.run.dataset = ds;
                    s.run.traffic = kind;
                }
    sw.columns = [](const Spec &s, const runtime::ServingReport &r) {
        std::vector<double> budgets_us, ttft, tok;
        for (double ms : kTtftBudgetsMs)
            budgets_us.push_back(ms * 1e3);
        for (const auto &p : r.ttftUs.attainmentCurve(budgets_us))
            ttft.push_back(p.attainment);
        for (const auto &p : r.perTokenMs.attainmentCurve(kPerTokenBudgetsMs))
            tok.push_back(p.attainment);
        return Cols{
            {"backend", "%-12s", "backend", "", s.backend},
            {"traffic", "%-8s", "traffic", "", s.run.traffic},
            {"dataset", "%-9s", "dataset", "", s.run.dataset},
            {"load", "%4.1fx", "load", "%.2f", s.load},
            json("rate_rps", s.run.rate, "%.2f"),
            json("completed", r.requestsCompleted),
            json("dropped", r.requestsDropped),
            json("makespan_ms", cyclesToMicros(r.makespanCycles) / 1e3,
                 "%.3f"),
            tab("batch", "%6.1f", r.meanBatchSize),
            {"tok/s", "%9.0f", "tokens_per_s", "%.1f", r.tokensPerSecond()},
            json("mean_batch", r.meanBatchSize, "%.2f"),
            tab("|ttft-p50", "%8.1f", r.ttftUs.p50() / 1e3),
            tab("ttft-p95", "%8.1f", r.ttftUs.p95() / 1e3),
            tab("ttft-p99", "%8.1f", r.ttftUs.p99() / 1e3),
            tab("|e2e-p99", "%8.0f", r.e2eUs.p99() / 1e3),
            tab("|SLO(ttft<100ms)", "%5.1f%%",
                r.ttftUs.attainment(100e3) * 100.0),
            lat("ttft_ms", r.ttftUs),
            lat("e2e_ms", r.e2eUs),
            lat("tbt_ms", r.tbtUs),
            lat("per_token_ms", r.perTokenMs, 1.0),
            json("ttft_slo_attainment", numbers(ttft)),
            json("per_token_slo_attainment", numbers(tok)),
        };
    };
    return sw;
}

// --- prefill_sweep: whole-prompt vs chunked + piggybacked prefill ---
//
// Prefill scheduling on the strongest backend (NeuPIMs+SBI, poisson
// ShareGPT): whole-prompt stall-the-world prefill against chunked
// prefill piggybacked onto decode iterations at several chunk budgets,
// across the same offered loads. The TTFT decomposition (queueing +
// prefill + first-decode percentiles) and decode TBT show the
// chunking/piggybacking trade-off: lower tail TTFT vs bounded TBT
// inflation.

Sweep
prefillSweep()
{
    Sweep sw{"prefill_sweep",
             "Prefill scheduling sweep (NeuPIMs+SBI, poisson, ShareGPT, "
             "recompute; whole without preemption)"};
    const std::pair<const char *, int> modes[] = {
        {"whole", 0}, // stall-the-world: no chunk budget, no piggyback
        {"chunked-128", 128},
        {"chunked-256", 256},
        {"chunked-512", 512},
    };
    for (const auto &[name, chunk] : modes)
        for (double load : pick<double>({0.7, 1.4, 2.8}, {1.4})) {
            Spec &s = sw.specs.emplace_back(
                spec(name, load, nominalRate("ShareGPT") * load));
            s.run.prefill.chunkTokens = chunk;
            if (chunk == 0) {
                s.run.prefill.piggyback = false;
                // Preemption needs piggybacked prefill; this arm fits.
                s.run.options.preempt = "off";
            }
        }
    sw.columns = [](const Spec &s, const runtime::ServingReport &r) {
        const auto &pf = s.run.prefill;
        return Cols{
            {"prefill", "%-12s", "prefill", "", s.name},
            json("chunk", pf.chunkTokens),
            json("piggyback", Value(pf.piggyback ? "true" : "false", true)),
            {"load", "%4.1fx", "load", "%.2f", s.load},
            json("completed", r.requestsCompleted),
            json("tokens_per_s", r.tokensPerSecond(), "%.1f"),
            json("mean_batch", r.meanBatchSize, "%.2f"),
            tab("|ttft-p50", "%8.1f", r.ttftUs.p50() / 1e3),
            tab("ttft-p95", "%8.1f", r.ttftUs.p95() / 1e3),
            tab("ttft-p99", "%8.1f", r.ttftUs.p99() / 1e3),
            tab("|queue-95", "%8.1f", r.queueUs.p95() / 1e3),
            tab("prefil-95", "%8.1f", r.prefillUs.p95() / 1e3),
            tab("1dec-95", "%8.1f", r.firstDecodeUs.p95() / 1e3),
            tab("|tbt-p50", "%7.2f", r.tbtUs.p50() / 1e3),
            tab("tbt-p95", "%7.2f", r.tbtUs.p95() / 1e3),
            lat("ttft_ms", r.ttftUs),
            lat("ttft_queue_ms", r.queueUs),
            lat("ttft_prefill_ms", r.prefillUs),
            lat("ttft_first_decode_ms", r.firstDecodeUs),
            lat("tbt_ms", r.tbtUs),
            lat("e2e_ms", r.e2eUs),
        };
    };
    return sw;
}

// --- preempt_sweep: memory pressure as a priced event ---------------
//
// Memory-pressure policies on the over-capacity device: recompute and
// swap eviction across three offered loads, against preemption off on
// the full KV capacity as the no-pressure reference (without
// preemption a decode token that finds no free page stops the run, so
// off cannot run on the shrunk cache). p95 TTFT/TBT, preemption rate,
// swap traffic and drops show the cost of pressure as a priced event.

Sweep
preemptSweep()
{
    Sweep sw{"preempt_sweep", "Preemption policy sweep (NeuPIMs+SBI, "
                              "poisson, ShareGPT, KV/6, maxlen 320; "
                              "off at full KV as the no-pressure "
                              "reference)"};
    for (const char *mode : {"off", "recompute", "swap"})
        for (double load : pick<double>({1.0, 1.5, 2.0}, {1.5})) {
            Spec &s = sw.specs.emplace_back(pressured(mode, load));
            s.run.options.preempt = mode;
            if (s.run.options.preempt == "off")
                s.run.options.kvScale = 1;
        }
    sw.columns = [](const Spec &s, const runtime::ServingReport &r) {
        double preempt_rate =
            r.requestsCompleted > 0
                ? static_cast<double>(r.preemptions) /
                      static_cast<double>(r.requestsCompleted)
                : 0.0;
        double out_mb = static_cast<double>(r.swapOutBytes) / 1e6;
        double in_mb = static_cast<double>(r.swapInBytes) / 1e6;
        return Cols{
            {"preempt", "%-10s", "preempt", "", s.name},
            json("victim", s.run.options.victim),
            {"load", "%4.1fx", "load", "%.2f", s.load},
            json("rate_rps", s.run.rate, "%.2f"),
            json("completed", r.requestsCompleted),
            json("dropped", r.requestsDropped),
            tab("|ttft-p95", "%8.1f", r.ttftUs.p95() / 1e3),
            tab("tbt-p95", "%8.2f", r.tbtUs.p95() / 1e3),
            {"|preempt", "%7.0f", "preemptions", "%.0f", r.preemptions},
            json("restores", r.restores),
            json("requests_preempted", r.requestsPreempted),
            {"per-req", "%7.2f", "preempt_rate", "%.4f", preempt_rate},
            json("pages_evicted", r.kvPagesEvicted),
            json("swap_out_mb", out_mb, "%.2f"),
            json("swap_in_mb", in_mb, "%.2f"),
            json("preempted_total_ms", r.preemptedUs.sum() * 1e-3, "%.3f"),
            json("tokens_per_s", r.tokensPerSecond(), "%.1f"),
            json("mean_batch", r.meanBatchSize, "%.2f"),
            tab("|restore", "%7.1f", r.restoreUs.p95() / 1e3),
            tab("swap-MB", "%8.1f",
                static_cast<double>(r.swapOutBytes + r.swapInBytes) / 1e6),
            tab("drops", "%5.0f", r.requestsDropped),
            tab("done", "%5.0f", r.requestsCompleted),
            lat("ttft_ms", r.ttftUs),
            lat("tbt_ms", r.tbtUs),
            lat("restore_ms", r.restoreUs),
            lat("preempted_span_ms", r.preemptedUs),
            lat("e2e_ms", r.e2eUs),
        };
    };
    return sw;
}

// --- policy_sweep: fcfs vs priority classes vs SLO-EDF --------------
//
// Scheduling policies (fcfs, priority classes with aging, SLO-EDF) on
// the over-capacity device under two priority-class arrival mixes
// across three offered loads. Per-class TTFT percentiles and SLO
// attainment show the differentiation the pluggable policy API exists
// to buy: high classes hold their SLO while low classes absorb the
// pressure.

Sweep
policySweep()
{
    Sweep sw{"policy_sweep", "Scheduling-policy sweep (NeuPIMs+SBI, "
                             "poisson, ShareGPT, KV/6, maxlen 320, "
                             "recompute)"};
    for (const char *policy : {"fcfs", "priority", "edf"})
        for (const char *mix : {"two-tier", "three-tier"})
            for (double load : pick<double>({1.0, 1.5, 2.0}, {1.5})) {
                Spec &s = sw.specs.emplace_back(pressured(policy, load));
                s.run.options.policy = policy;
                s.run.classes = mix;
            }
    sw.columns = [](const Spec &s, const runtime::ServingReport &r) {
        std::vector<std::string> classes;
        for (const auto &c : r.classes) {
            Cols cls = {
                json("class", c.priorityClass),
                json("submitted", c.submitted),
                json("completed", c.completed),
                json("preempted", c.preempted),
                json("ttft_p50_ms", c.ttftUs.p50() * 1e-3, "%.3f"),
                json("ttft_p95_ms", c.ttftUs.p95() * 1e-3, "%.3f"),
                json("e2e_p95_ms", c.e2eUs.p95() * 1e-3, "%.3f"),
                json("tbt_p95_ms", c.tbtUs.p95() * 1e-3, "%.3f"),
                json("slo_ttft", c.ttftAttainment, "%.4f"),
                json("slo_tpt", c.tptAttainment, "%.4f"),
            };
            classes.push_back(jsonObject(cls).str);
        }
        // Highest and lowest class present, for the table.
        const auto &lo = r.classes.front();
        const auto &hi = r.classes.back();
        return Cols{
            {"policy", "%-9s", "policy", "", s.name},
            {"classes", "%-11s", "classes", "", s.run.classes},
            {"load", "%4.1fx", "load", "%.2f", s.load},
            json("rate_rps", s.run.rate, "%.2f"),
            json("completed", r.requestsCompleted),
            json("dropped", r.requestsDropped),
            json("preemptions", r.preemptions),
            json("tokens_per_s", r.tokensPerSecond(), "%.1f"),
            json("mean_batch", r.meanBatchSize, "%.2f"),
            tab("|ttft-p95", "%8.1f", r.ttftUs.p95() / 1e3),
            tab("tbt-p95", "%8.2f", r.tbtUs.p95() / 1e3),
            tab("|hi-ttft95", "%8.1f", hi.ttftUs.p95() / 1e3),
            tab("lo-ttft95", "%8.1f", lo.ttftUs.p95() / 1e3),
            tab("|hi-slo", "%6.1f%%", hi.ttftAttainment * 100.0),
            tab("lo-slo", "%6.1f%%", lo.ttftAttainment * 100.0),
            tab("|done", "%.0f", r.requestsCompleted),
            lat("ttft_ms", r.ttftUs),
            lat("tbt_ms", r.tbtUs),
            lat("e2e_ms", r.e2eUs),
            json("class_breakdown", list(classes, "      ")),
        };
    };
    return sw;
}

// --- fault_sweep: availability under injected failures --------------
//
// Faults (permanent channel failure, transient brownout, straggler
// window, and a full "storm" with impatient clients, retries and load
// shedding) on the over-capacity device at 1.5x load — the regime
// where losing a channel actually hurts. Availability counters,
// time-to-recovery, wasted work and goodput show what graceful
// degradation costs and recovers (DESIGN.md §10).

Sweep
faultSweep()
{
    Sweep sw{"fault_sweep", "Fault/degradation sweep (NeuPIMs+SBI, "
                            "poisson, ShareGPT, KV/6, maxlen 320, 1.5x, "
                            "recompute)"};
    struct Scenario
    {
        const char *name, *fault;
        double clientTimeoutMs;
        int retries;
        double shedWatermark, shedWaitMs;
        bool fast; ///< in the NEUPIMS_BENCH_FAST=1 subset
    };
    const Scenario scenarios[] = {
        {"none", "", 0.0, 0, 0.0, 0.0, true},
        {"fail", "fail:40", 0.0, 0, 0.0, 0.0, true},
        {"brownout", "brownout:30:2:25", 0.0, 0, 0.0, 0.0, false},
        {"straggler", "straggler:20:-1:80:3.0", 0.0, 0, 0.0, 0.0, false},
        {"storm", "fail:40", 600.0, 2, 0.05, 400.0, true},
    };
    for (const Scenario &sc : scenarios) {
        if (!sc.fast && bench::fastMode())
            continue;
        Spec &s = sw.specs.emplace_back(pressured(sc.name, 1.5));
        s.run.clientTimeoutMs = sc.clientTimeoutMs;
        s.run.options.fault = sc.fault;
        s.run.options.retries = sc.retries;
        s.run.options.shedWatermark = sc.shedWatermark;
        s.run.options.shedWaitMs = sc.shedWaitMs;
    }
    sw.columns = [](const Spec &s, const runtime::ServingReport &r) {
        const core::ServingOptions &o = s.run.options;
        return Cols{
            {"scenario", "%-10s", "scenario", "", s.name},
            json("fault", o.fault),
            json("client_timeout_ms", s.run.clientTimeoutMs, "%.1f"),
            json("retries", o.retries),
            json("shed_watermark", o.shedWatermark, "%.3f"),
            json("shed_wait_ms", o.shedWaitMs, "%.1f"),
            {"|done", "%5.0f", "completed", "%.0f", r.requestsCompleted},
            {"tmout", "%5.0f", "timed_out", "%.0f", r.requestsTimedOut},
            {"shed", "%5.0f", "shed", "%.0f", r.requestsShed},
            {"retry", "%5.0f", "retried", "%.0f", r.requestsRetried},
            json("channels_failed", r.channelsFailed),
            json("brownouts", r.channelsBrownedOut),
            json("fault_preemptions", r.faultPreemptions),
            json("kv_pages_lost", r.kvPagesLost),
            json("wasted_tokens", r.wastedTokens),
            json("recovery_ms_max", r.recoveryUs.maxValue() * 1e-3, "%.3f"),
            json("recovery_events", r.recoveryUs.count()),
            json("in_slo", r.requestsInSlo),
            tab("|ttft-p95", "%8.1f", r.ttftUs.p95() / 1e3),
            tab("e2e-p95", "%8.0f", r.e2eUs.p95() / 1e3),
            tab("|recov-ms", "%9.1f", r.recoveryUs.maxValue() / 1e3),
            tab("waste-tok", "%9.0f", r.wastedTokens),
            {"|goodput", "%8.0f", "goodput_tokens_per_s", "%.1f",
             r.goodputTokensPerSecond()},
            json("tokens_per_s", r.tokensPerSecond(), "%.1f"),
            lat("ttft_ms", r.ttftUs),
            lat("e2e_ms", r.e2eUs),
        };
    };
    return sw;
}

// --- mem_sched_sweep: engine grid, SBI hide-fraction fit ------------
//
// For each DRAM arbitration policy (frfcfs, paws), run the
// cycle-accurate engine over the SBI grid (batch 256-768 x sequence
// 512-1536), measure the per-layer period, and report two analytic
// recalibrations against it: (a) the best CONSTANT hide fraction — a
// linear least-squares fit E ~= a*serial - b*hideable, f = b/a —
// whose residual shows why no constant closes the gap, and (b) the
// per-point effective fractions f_eff = (serial - E)/hideable that the
// calibrated surface in calibratedSbiHideFraction hardcodes, evaluated
// through the shipping model (surface + anchor calibration at the
// first grid point). Per-point residuals and the controller's
// scheduling statistics (bank utilization, stall/waste integrals, mode
// switches) are the calibration evidence (DESIGN.md §11).

Output
memSchedRun(const Spec &s)
{
    auto dev = core::servingBackendByName(s.backend).device;
    core::applyMemSched(dev, s.name);
    const int tp = kLlm.defaultTp;
    const int layers = kLlm.layersPerDevice(kLlm.defaultPp);
    core::AnalyticIterationModel analytic(dev, kLlm, tp, layers);
    const auto batches = pick<int>({256, 384, 512, 768}, {256, 512});
    const auto seqs = pick<int>({512, 1024, 1536}, {512, 1024});

    struct Point
    {
        int batch, seq;
        core::BatchComposition comp;
        core::IterationResult res;
        double measured, serial, hideable;
    };
    std::vector<Point> pts;
    double ss = 0, sm = 0, mm = 0, es = 0, em = 0;
    for (int b : batches) {
        for (int q : seqs) {
            Point &p = pts.emplace_back();
            p.batch = b;
            p.seq = q;
            p.comp = core::uniformComposition(b, q, dev.org.channels);
            core::DeviceExecutor exec(dev, kLlm, tp, layers);
            p.res = exec.runIteration(p.comp, 3, 1);
            p.measured = static_cast<double>(p.res.perLayerCycles);
            analytic.sbiComponents(p.comp, p.serial, p.hideable);
            ss += p.serial * p.serial;
            sm += p.serial * p.hideable;
            mm += p.hideable * p.hideable;
            es += p.measured * p.serial;
            em += p.measured * p.hideable;
        }
    }
    // Normal equations of E = a*s - b*m:
    //   a*ss - b*sm = es
    //   a*sm - b*mm = em
    double det = sm * sm - ss * mm;
    double fit_a = 1.0, fit_b = 0.25;
    if (std::fabs(det) > 1e-9) {
        fit_a = (sm * em - mm * es) / det;
        fit_b = (ss * em - sm * es) / det;
    }
    double fitted =
        fit_a > 0 ? std::min(1.0, std::max(0.0, fit_b / fit_a)) : 0.25;

    // Shipping model: calibrated surface + scale anchor.
    analytic.setScale(1.0);
    analytic.calibrate(batches.front(), seqs.front());

    Output out;
    double max_const = 0.0, max_surf = 0.0;
    std::vector<std::string> points;
    for (const Point &p : pts) {
        double pred_const = fit_a * p.serial - fit_b * p.hideable;
        double pred_surf =
            static_cast<double>(analytic.perLayerCyclesFor(p.comp));
        double r_const = pred_const / p.measured - 1.0;
        double r_surf = pred_surf / p.measured - 1.0;
        max_const = std::max(max_const, std::fabs(r_const));
        max_surf = std::max(max_surf, std::fabs(r_surf));
        const dram::MemSchedStats &st = p.res.memSched;
        Cols cols = {
            tab("sched", "%-11s", s.name),
            {"batch", "%5.0f", "batch", "%.0f", p.batch},
            {"seq", "%5.0f", "seq", "%.0f", p.seq},
            {"|meas/lyr", "%10.0f", "measured_per_layer", "%.0f",
             p.measured},
            {"f-eff", "%6.3f", "effective_hide_fraction", "%.4f",
             p.hideable > 0 ? (p.serial - p.measured) / p.hideable : 0.0},
            {"|r-const", "%+6.2f%%", "const_residual_pct", "%.3f",
             r_const * 100.0},
            {"r-surf", "%+6.2f%%", "surface_residual_pct", "%.3f",
             r_surf * 100.0},
            json("mem_bank_util", p.res.memBankUtil, "%.4f"),
            {"|pim-stall", "%9.0f", "pim_stall_cycles", "%.0f",
             st.pimStallCycles},
            {"pim-waste", "%9.0f", "pim_waste_cycles", "%.0f",
             st.pimWasteCycles},
            {"mode", "%6.0f", "mode_switches", "%.0f", st.modeSwitches},
        };
        out.row(cols);
        points.push_back(jsonObject(cols).str);
    }
    char summary[160];
    std::snprintf(summary, sizeof summary,
                  "%-11s best constant f %.4f leaves max residual %.2f%%; "
                  "calibrated surface %.2f%%\n",
                  s.name, fitted, max_const * 100.0, max_surf * 100.0);
    out.rows += summary;
    out.objects.push_back(block({
        json("sched", s.name),
        json("const_fit_hide_fraction", fitted, "%.4f"),
        json("const_fit_max_residual_pct", max_const * 100.0, "%.3f"),
        json("surface_max_residual_pct", max_surf * 100.0, "%.3f"),
        json("anchor", jsonObject({json("batch", batches.front()),
                                   json("seq", seqs.front())})),
        json("points", list(points, "      ")),
    }));
    return out;
}

Sweep
memSchedSweep()
{
    Sweep sw{"mem_sched_sweep", "Memory-scheduler sweep (NeuPIMs+SBI "
                                "engine grid, " + kLlm.name + ")"};
    for (const char *sched : {"frfcfs", "paws"})
        sw.specs.push_back(spec(sched, 0.0, 0.0));
    sw.run = memSchedRun;
    return sw;
}

// --- hybrid_sweep: sampled engine vs the full-event baseline --------
//
// The hybrid-fidelity iteration model on the strongest backend: N = 1
// prices every iteration on the cycle-accurate engine (the full-event
// baseline); larger N samples every Nth boundary plus forced samples
// on composition changes and fast-forwards the rest on anchored
// measured/analytic ratios (DESIGN.md §12). Per-N latency errors
// against N = 1 and two deterministic speedup ratios:
// full_event_cut = iterations / engine invocations — the wall-clock
// cut vs pricing *every* iteration through the engine, since an
// invocation costs the same either way — and engine_run_cut, the
// invocation cut vs the N = 1 run (whose composition cache already
// skips repeat compositions, so its baseline is lower). Two configs:
// the standard device at 1.4x, and the over-capacity policy-grid
// config (fcfs) where preemptions drive the forced-sample path. Each
// run's anchors live only for that run; wall-clock seconds print to
// stdout only, so the JSON stays deterministic for CI's compare.

Output
hybridRun(const Spec &s)
{
    Output out;
    const auto &dev = core::servingBackendByName(s.backend).device;
    double base_ttft = 0, base_tbt = 0, base_e2e = 0;
    std::uint64_t base_runs = 0;
    for (int every : {1, 8, 16}) {
        auto setup = core::setupServingRun(dev, kLlm, s.run);
        auto h = core::makeHybridIterationModel(dev, kLlm, every);
        runtime::ServingEngine engine(setup.config, *setup.traffic, *h);
        auto t0 = std::chrono::steady_clock::now();
        auto r = engine.run();
        std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - t0;
        if (every == 1) {
            base_ttft = r.ttftUs.p95();
            base_tbt = r.tbtUs.p95();
            base_e2e = r.e2eUs.p99();
            base_runs = h->executorRuns();
        }
        auto err = [](double v, double base) {
            return base > 0 ? (v / base - 1.0) * 100.0 : 0.0;
        };
        auto per_run = [&h](std::uint64_t n) {
            return h->executorRuns() > 0
                       ? static_cast<double>(n) /
                             static_cast<double>(h->executorRuns())
                       : 0.0;
        };
        out.add({
            json("config", s.name),
            {"every", "%5.0f", "sample_every", "%.0f", every},
            tab("|ttft-p95", "%8.1f", r.ttftUs.p95() / 1e3),
            tab("tbt-p95", "%8.2f", r.tbtUs.p95() / 1e3),
            tab("e2e-p99", "%8.0f", r.e2eUs.p99() / 1e3),
            json("completed", r.requestsCompleted),
            json("tokens_per_s", r.tokensPerSecond(), "%.1f"),
            {"|sampled", "%7.0f", "sampled", "%.0f", h->sampledIterations()},
            {"forced", "%6.0f", "forced_samples", "%.0f", h->forcedSamples()},
            {"fastfwd", "%7.0f", "fast_forwarded", "%.0f", h->fastForwarded()},
            json("ff_cache_hits", h->fastForwardCacheHits()),
            {"|eng-runs", "%8.0f", "engine_runs", "%.0f", h->executorRuns()},
            {"evcut", "%5.1fx", "full_event_cut", "%.3f",
             per_run(h->sampledIterations() + h->fastForwarded())},
            {"memcut", "%5.1fx", "engine_run_cut", "%.3f", per_run(base_runs)},
            json("anchors", h->anchorCount()),
            tab("|wall-s", "%7.2f", wall.count()),
            json("ttft_p95_ms", r.ttftUs.p95() * 1e-3, "%.3f"),
            json("ttft_p95_err_pct", err(r.ttftUs.p95(), base_ttft), "%.3f"),
            json("tbt_p95_ms", r.tbtUs.p95() * 1e-3, "%.3f"),
            json("tbt_p95_err_pct", err(r.tbtUs.p95(), base_tbt), "%.3f"),
            json("e2e_p99_ms", r.e2eUs.p99() * 1e-3, "%.3f"),
            json("e2e_p99_err_pct", err(r.e2eUs.p99(), base_e2e), "%.3f"),
        });
    }
    // Each config prints its own section.
    out.rows = "\n=== Hybrid-fidelity sweep (NeuPIMs+SBI, poisson, "
               "ShareGPT, " + std::string(s.name) + ") ===\n\n" +
               out.header + out.rows;
    out.header.clear();
    return out;
}

Sweep
hybridSweep()
{
    Sweep sw{"hybrid_sweep", ""};
    sw.specs = {spec("standard-1.4x", 1.4, nominalRate("ShareGPT") * 1.4),
                pressured("policy-grid-1.5x", 1.5)};
    sw.run = hybridRun;
    return sw;
}

// --- prefix_sweep: copy-on-write KV page sharing off vs on ----------
//
// Conversational session traffic (multi-turn prompts over a hot shared
// system prompt, DESIGN.md §13) on the strongest backend with
// recompute preemption, across hot-prefix fractions and offered loads.
// The off arm prices every prefill token from scratch; the on arm
// binds whole cached pages by reference and prices only the uncached
// suffix plus a prefix-read term. The TTFT gap plus the prefix-cache
// counters (hit rate, deduplicated tokens and pages, COW copies,
// publications, reclaims) are what the radix index buys.

Sweep
prefixSweep()
{
    Sweep sw{"prefix_sweep", "Shared-prefix KV sweep (NeuPIMs+SBI, "
                             "session, ShareGPT, sys 1536, turns 8, "
                             "recompute)"};
    for (bool share : {false, true})
        for (double hot : {0.5, 1.0})
            for (double rate : pick<double>({192, 384, 576}, {384})) {
                const char *arm = share ? "share-on" : "share-off";
                core::ServingRun &run =
                    sw.specs.emplace_back(spec(arm, 0.0, rate)).run;
                run.traffic = "session";
                run.session.hotFraction = hot;
                run.session.systemPromptTokens = 1536;
                run.session.meanTurns = 8.0;
                run.session.thinkMs = 80.0;
                run.options.prefixShare = share;
            }
    sw.columns = [](const Spec &s, const runtime::ServingReport &r) {
        return Cols{
            {"sharing", "%-10s", "sharing", "", s.name},
            {"hot", "%4.2f", "hot_fraction", "%.2f",
             s.run.session.hotFraction},
            {"rps", "%5.0f", "rate_rps", "%.0f", s.run.rate},
            json("completed", r.requestsCompleted),
            json("dropped", r.requestsDropped),
            json("tokens_per_s", r.tokensPerSecond(), "%.1f"),
            json("mean_batch", r.meanBatchSize, "%.2f"),
            json("preemptions", r.preemptions),
            json("prefix_admissions", r.prefixAdmissions),
            json("prefix_hits", r.prefixHits),
            json("hit_rate", r.prefixHitRate, "%.4f"),
            json("tokens_deduped", r.prefixTokensDeduped),
            json("pages_deduped", r.prefixPagesDeduped),
            json("cow_copies", r.prefixCowCopies),
            json("pages_published", r.prefixPagesPublished),
            json("pages_reclaimed", r.prefixPagesReclaimed),
            tab("|ttft-p50", "%8.1f", r.ttftUs.p50() / 1e3),
            tab("ttft-p95", "%8.1f", r.ttftUs.p95() / 1e3),
            tab("|tbt-p95", "%7.2f", r.tbtUs.p95() / 1e3),
            tab("|hit%", "%4.0f%%", r.prefixHitRate * 100.0),
            tab("pages", "%6.0f", r.prefixPagesDeduped),
            tab("tok-dedup", "%8.0f", r.prefixTokensDeduped),
            tab("publish", "%8.0f", r.prefixPagesPublished),
            tab("|drops", "%5.0f", r.requestsDropped),
            lat("ttft_ms", r.ttftUs),
            lat("tbt_ms", r.tbtUs),
            lat("e2e_ms", r.e2eUs),
        };
    };
    return sw;
}

} // namespace

int
main()
{
    // Checks NEUPIMS_BENCH_FAST and NEUPIMS_BENCH_SEED before any run.
    const std::uint64_t seed = bench::benchSeed();
    const Sweep sweeps[] = {configSweep(), prefillSweep(), preemptSweep(),
                            policySweep(), faultSweep(),   memSchedSweep(),
                            hybridSweep(), prefixSweep()};
    std::FILE *json_file = std::fopen("BENCH_serving.json", "w");
    if (!json_file)
        fatal("cannot open BENCH_serving.json for writing");
    // Execution context: CI's staleness check requires build_type
    // "release". Nothing host-dependent goes here: CI compares the
    // whole file.
#ifdef NDEBUG
    const char *build_type = "release";
#else
    const char *build_type = "debug";
#endif
    Cols head = {
        json("bench", "serving_latency"),
        json("model", kLlm.name),
        json("requests", sweeps[0].specs[0].run.requests),
        json("seed", Value(std::to_string(seed), true)),
        json("context", jsonObject({json("build_type", build_type)})),
        json("ttft_budgets_ms", numbers(kTtftBudgetsMs)),
        json("per_token_budgets_ms", numbers(kPerTokenBudgetsMs)),
    };
    std::fprintf(json_file, "{\n  %s", fields(head, ",\n  ").c_str());
    for (const Sweep &sw : sweeps) {
        if (!sw.title.empty())
            std::printf("%s=== %s ===\n\n", &sw == sweeps ? "" : "\n",
                        sw.title.c_str());
        std::fprintf(json_file, ",\n  \"%s\": [", sw.key);
        const char *sep = "\n";
        for (const Spec &s : sw.specs) {
            Output out;
            if (sw.run)
                out = sw.run(s);
            else
                out.add(sw.columns(s, serve(s)));
            if (&s == &sw.specs[0])
                std::fputs(out.header.c_str(), stdout);
            std::fputs(out.rows.c_str(), stdout);
            for (const auto &obj : out.objects) {
                std::fprintf(json_file, "%s%s", sep, obj.c_str());
                sep = ",\n";
            }
        }
        std::fprintf(json_file, "\n  ]");
    }
    std::fprintf(json_file, "\n}\n");
    std::fclose(json_file);
    std::printf("\nwrote BENCH_serving.json\n");
    return 0;
}
