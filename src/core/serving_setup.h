/**
 * @file
 * Shared wiring for serving-engine drivers (examples/serve_trace,
 * bench/fig_serving_latency, tests): the four standard serving
 * backends, scheduler/KV configuration derived from a device+model
 * pair, iteration-latency model construction, and the one assembly
 * path from a ServingRun to its traffic model and ServingConfig.
 */

#ifndef NEUPIMS_CORE_SERVING_SETUP_H_
#define NEUPIMS_CORE_SERVING_SETUP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/iteration_model.h"
#include "runtime/traffic.h"

namespace neupims::core {

/** One serving backend: a named device configuration. */
struct ServingBackend
{
    std::string name;
    DeviceConfig device;
};

/**
 * The four systems the serving sweeps compare: NPU-only, the serial
 * naive NPU+PIM baseline, NeuPIMs without sub-batch interleaving, and
 * full NeuPIMs with SBI.
 */
const std::vector<ServingBackend> &standardServingBackends();

/** Look up a standard backend by name; fatal() on unknown names. */
const ServingBackend &servingBackendByName(const std::string &name);

/**
 * Scheduler + KV configuration for serving @p llm on @p dev:
 * Orca-style admission up to @p max_batch, the device's channel count
 * and packing policy, Algorithm-1 estimator parameters, and 3/4 of
 * each channel's capacity reserved for KV pages (the rest holds
 * weights), as the §8.1 setup assumes. Prefill keeps the
 * runtime::PrefillConfig defaults: chunked admission (256-token
 * budget) piggybacked onto decode iterations.
 */
runtime::ServingConfig
servingConfigFor(const DeviceConfig &dev, const model::LlmConfig &llm,
                 int max_batch = 256);

/** Build the analytic iteration-latency model for a backend. */
std::unique_ptr<AnalyticIterationModel>
makeIterationModel(const DeviceConfig &dev, const model::LlmConfig &llm);

/**
 * Build the engine-backed model (HybridIterationModel): event-engine
 * samples every @p sample_every iterations (plus forced samples on
 * composition changes), analytic fast-forward between them; 1 prices
 * every iteration on the engine.
 */
std::unique_ptr<HybridIterationModel>
makeHybridIterationModel(const DeviceConfig &dev,
                         const model::LlmConfig &llm, int sample_every);

/**
 * Apply a --mem-sched policy name ("frfcfs" | "paws",
 * dram/mem_sched.h) onto @p dev — the knob selects both the
 * controller's command arbitration and the analytic model's
 * calibrated SBI overlap surface. fatal() on unknown names; "frfcfs"
 * reproduces the historical device bit-for-bit.
 */
void applyMemSched(DeviceConfig &dev, const std::string &name);

/**
 * Everything a serving driver configures beyond the backend/model
 * pair, in one documented struct applied by applyServingOptions —
 * replacing the former applyPreemptConfig string/double
 * default-argument wiring. The defaults reproduce the canonical
 * serving setup (Fcfs, preemption off, full KV capacity)
 * bit-for-bit.
 */
struct ServingOptions
{
    // --- memory pressure (PreemptConfig) ------------------------
    /** "off" (admission stall; the run must fit) | "recompute" |
     * "swap". */
    std::string preempt = "off";
    /** Victim order under pressure: "lifo" | "fewest" | "longest". */
    std::string victim = "lifo";
    /** Host link rate for Swap transfers (GB/s). */
    double swapGbps = 64.0;

    // --- scheduling policy (SchedPolicyConfig) ------------------
    /** "fcfs" | "priority" | "edf" (runtime/sched_policy.h). */
    std::string policy = "fcfs";
    /** PriorityClass anti-starvation aging period (ms; 0 = off). */
    double agingMs = 50.0;
    /** Default SLO targets for requests carrying none (ms). */
    double sloTtftMs = 250.0;
    double sloTptMs = 25.0;

    // --- capacity -----------------------------------------------
    /** Shrink device KV capacity by this factor (over-capacity
     * scenarios without changing traffic or model). */
    int kvScale = 1;

    // --- prefix sharing (runtime/kv_cache.h, DESIGN.md §13) -----
    /** Refcounted copy-on-write page sharing over the radix prefix
     * index; off reproduces every pre-sharing trace byte-for-byte. */
    bool prefixShare = false;

    // --- robustness (fault_model.h, DESIGN.md §10) --------------
    /** Fault-injection spec, "kind:startMs[:chan[:durMs[:factor]]]"
     * comma-separated (empty = no faults); parsed with
     * runtime::parseFaultSpecs under @ref faultSeed. */
    std::string fault;
    /** Seed for the fault stream's random channel picks. */
    std::uint64_t faultSeed = 42;
    /** Client retries per abandoned attempt (0 = off). */
    int retries = 0;
    /** First retry backoff (ms); doubles per further attempt. */
    double retryBackoffMs = 5.0;
    /** Load-shedding KV-headroom watermark: shed when the free
     * fraction of live capacity drops below this (0 = off). */
    double shedWatermark = 0.0;
    /** Load-shedding waiting-time watermark (ms; 0 = off). */
    double shedWaitMs = 0.0;
};

/** Apply @p opt onto @p cfg (drivers, benches and the goldens share
 * this wiring; fatal() on unknown names). */
void applyServingOptions(runtime::ServingConfig &cfg,
                         const ServingOptions &opt);

/**
 * One serving run beyond the backend/model pair: the traffic that
 * drives it and the scheduler configuration it runs under.
 * serve_trace's flags and each fig_serving_latency spec fill one in;
 * setupServingRun assembles it.
 */
struct ServingRun
{
    // --- traffic (runtime/traffic.h) ----------------------------
    /** "poisson" | "bursty" | "replay" | "session". */
    std::string traffic = "poisson";
    /** "ShareGPT" | "Alpaca" (runtime::datasetByName). */
    std::string dataset = "ShareGPT";
    /** Cap on a request's prompt + output tokens (0 = the
     * dataset's own). */
    int maxLen = 0;
    double rate = 0.0; ///< offered load (requests/s)
    int requests = 96;
    /** Seeds the arrival stream, the class draws and the client
     * retry jitter. */
    std::uint64_t seed = 42;
    /** Priority-class mix: "uniform" | "two-tier" | "three-tier". */
    std::string classes = "uniform";
    /** Client deadline after arrival (ms; 0 = patient clients). */
    double clientTimeoutMs = 0.0;
    /** Conversation shape of "session" traffic. */
    runtime::SessionTrafficConfig session;
    /** "replay" this CSV (arrival_us,input,output rows) in place of
     * the synthetic fixed-rate trace (empty = synthetic). */
    std::string traceCsv;

    // --- configuration ------------------------------------------
    runtime::PrefillConfig prefill;
    ServingOptions options;
};

/** A run's assembled inputs; a ServingEngine borrows both. */
struct ServingSetup
{
    std::unique_ptr<runtime::TrafficModel> traffic;
    runtime::ServingConfig config;
};

/**
 * Assemble @p run for serving @p llm on @p dev: its traffic model
 * (dataset length cap, class mix, client timeout, session shape or
 * CSV replay) and servingConfigFor + run.prefill +
 * applyServingOptions. fatal() on unknown names.
 */
ServingSetup setupServingRun(const DeviceConfig &dev,
                             const model::LlmConfig &llm,
                             const ServingRun &run);

/**
 * Shrink the device KV capacity by an integer factor — the standard
 * way the preemption sweeps and goldens create over-capacity load
 * without changing the traffic or the model.
 */
void scaleKvCapacity(runtime::ServingConfig &cfg, int denominator);

} // namespace neupims::core

#endif // NEUPIMS_CORE_SERVING_SETUP_H_
