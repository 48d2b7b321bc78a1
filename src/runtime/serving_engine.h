/**
 * @file
 * Closed-loop serving engine: drives the phase-aware Orca-style
 * BatchScheduler through simulated wall-clock time with request
 * arrivals from a pluggable TrafficModel, and tracks per-request TTFT
 * (decomposed into queueing, prefill and first-decode spans),
 * time-between-tokens and end-to-end latency.
 *
 * Arrival generation is open-loop (requests arrive on the traffic
 * model's schedule regardless of system load); the *loop that is
 * closed* is between the scheduler and the execution engine — each
 * iteration's simulated latency advances the clock over which new
 * arrivals accrue, so queueing delay, batch growth and latency
 * feedback emerge exactly as they would on hardware. See DESIGN.md §6
 * for the simulated-time model.
 *
 * The engine is backend-agnostic: iteration latency comes from an
 * IterationLatencyModel, implemented in src/core/iteration_model.h
 * both analytically (fast, closed-form over the compiled layer work)
 * and by the cycle-accurate DeviceExecutor (memoized). Everything is
 * deterministic under fixed seeds.
 */

#ifndef NEUPIMS_RUNTIME_SERVING_ENGINE_H_
#define NEUPIMS_RUNTIME_SERVING_ENGINE_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "runtime/batch_scheduler.h"
#include "runtime/fault_model.h"
#include "runtime/latency_stats.h"
#include "runtime/traffic.h"

namespace neupims::runtime {

/**
 * DRAM command-arbitration summary surfaced by an iteration-latency
 * model whose backing engine ran the cycle-accurate memory system
 * (dram/mem_sched.h): the engine-backed model accumulates it over
 * its executor runs, the analytic model carries its calibration
 * anchor's run. `valid` stays false for models that never
 * executed the engine, and drivers print nothing then — the runtime
 * layer holds only plain counters, no dram dependency.
 */
struct MemSchedSummary
{
    bool valid = false;
    std::string policy; ///< "frfcfs" | "paws"
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t rowConflicts = 0;
    std::uint64_t memCommands = 0;
    std::uint64_t pimCommands = 0;
    std::uint64_t modeSwitches = 0;
    Cycle pimStallCycles = 0; ///< ready PIM deferred behind later MEM
    Cycle pimWasteCycles = 0; ///< bus waited for later PIM over MEM
    double memBankUtil = 0.0; ///< mean per-bank MEM data service
};

/**
 * Maps one iteration's schedule to its simulated latency in cycles.
 * Implementations live in src/core (they need the device model); the
 * runtime layer only sees this interface.
 */
class IterationLatencyModel
{
  public:
    virtual ~IterationLatencyModel() = default;

    virtual const std::string &name() const = 0;

    /** Simulated cycles one iteration of @p schedule takes. */
    virtual Cycle iterationCycles(const IterationSchedule &schedule) = 0;

    /** DRAM arbitration stats of the model's backing engine runs
     * (invalid default for models without one). */
    virtual MemSchedSummary memSchedSummary() const { return {}; }
};

/**
 * Client retry behavior after an abandoned attempt (timeout or shed):
 * the engine re-submits the request as a NEW arrival carrying an
 * attempt counter, delayed by exponential backoff with jitter from a
 * dedicated RNG stream (`seed ^ 0xbac0ffULL` — retry draws never
 * perturb traffic or fault streams). maxRetries 0 (the default)
 * disables retries entirely and draws nothing.
 */
struct ClientRetryConfig
{
    int maxRetries = 0; ///< re-submissions per original request
    /** First retry delay; doubles each further attempt. 5 ms at the
     * 1 GHz clock domain. */
    Cycle backoffCycles = 5'000'000;
    /** Uniform jitter fraction on top of the backoff (delay *=
     * 1 + jitterFrac * U[0,1)), decorrelating retry storms. */
    double jitterFrac = 0.25;
    std::uint64_t seed = 42;

    bool enabled() const { return maxRetries > 0; }
};

struct ServingConfig
{
    SchedulerConfig scheduler;
    KvCacheConfig kv;
    /** Fault injection (inert when no events are configured). */
    FaultModelConfig fault;
    /** Client retry-with-backoff behavior (disabled by default). */
    ClientRetryConfig client;

    /** Safety horizon: stop even if requests remain (kCycleMax =
     * unbounded). */
    Cycle maxCycles = kCycleMax;
    /** Safety iteration cap (0 = unbounded). */
    int maxIterations = 0;
};

/** One row of the per-iteration serving trace. */
struct IterationTraceRow
{
    int iteration = 0;
    Cycle startCycle = 0;      ///< clock when the iteration began
    Cycle iterationCycles = 0; ///< latency the model returned
    int batch = 0;             ///< decode participants
    int prefilling = 0;        ///< prefill slices this iteration
    int prefillTokens = 0;     ///< prompt tokens prefilled
    int admitted = 0;
    int retired = 0;
    /** Waiting requests rejected at this boundary because their
     * sequence can never fit a channel's KV capacity (preemption
     * enabled only; 0 otherwise). */
    int dropped = 0;
    int waiting = 0; ///< waiting count after admission
    double maxChannelLoad = 0.0; ///< Algorithm-1 estimate (cycles)
    double kvUtilization = 0.0;
    // --- memory-pressure columns (all 0 with PreemptMode::Off) ------
    int preempted = 0;       ///< victims evicted at this boundary
    int restored = 0;        ///< evictees restored at this boundary
    int preemptedPool = 0;   ///< evictees still parked afterwards
    Bytes swapOutBytes = 0;  ///< swap traffic priced into the iteration
    Bytes swapInBytes = 0;
    // --- fault/degradation columns (all 0 with faults, timeouts and
    // shedding off; only the fault golden serializer prints them) ----
    int timedOut = 0;        ///< client-deadline aborts at this boundary
    int shed = 0;            ///< load-shedding gate victims
    int retriesScheduled = 0; ///< backoff re-submissions queued
    int faultPreempted = 0;  ///< force-evicted by channel loss
    int offlineChannels = 0; ///< channels dark (failed or brownout)
};

/**
 * One priority class's slice of a serving run: request accounting,
 * latency distributions and SLO attainment, all restricted to the
 * requests submitted with that class. Classless runs report a single
 * class 0 covering everything.
 */
struct ClassServingReport
{
    int priorityClass = 0;
    int submitted = 0;
    int completed = 0;
    int dropped = 0;
    int preempted = 0; ///< distinct requests evicted at least once
    // --- availability accounting (0 with the fault layer off) -------
    int timedOut = 0; ///< abandoned at the client deadline
    int shed = 0;     ///< rejected by the load-shedding gate
    int retried = 0;  ///< backoff re-submissions (attempt > 0)

    /** Same units/sampling rules as the run-wide stats below. */
    LatencyStats ttftUs;
    LatencyStats e2eUs;
    LatencyStats tbtUs;
    LatencyStats perTokenMs;

    /**
     * Fraction of first-token-producing requests meeting their TTFT
     * target (the request's own ttftSlo, falling back to the
     * scheduler policy's default), and of finished requests whose
     * mean per-token latency meets the per-token target. 1.0 with no
     * samples.
     */
    double ttftAttainment = 1.0;
    double tptAttainment = 1.0;
};

/** Everything a serving run produced. */
struct ServingReport
{
    std::string backend;
    std::string traffic;
    std::string dataset;

    int requestsSubmitted = 0;
    int requestsCompleted = 0;
    /** Rejected because the sequence can never fit a channel's KV
     * capacity. Capacity pressure on fitting requests preempts (see
     * preemptions below) instead of dropping — the two are reported
     * separately. */
    int requestsDropped = 0;
    /** Admitted or waiting but unfinished when the run stopped (only
     * non-zero when a safety stop trips). Their unstamped timeline
     * sentinels are excluded from every LatencyStats below. */
    int requestsInFlight = 0;
    Cycle makespanCycles = 0; ///< clock when the last request finished
    std::uint64_t generatedTokens = 0;
    std::uint64_t prefilledTokens = 0; ///< prompt tokens prefilled
    int iterations = 0;
    double meanBatchSize = 0.0; ///< decode + prefill participants
    bool hitSafetyStop = false; ///< maxCycles/maxIterations tripped

    // --- memory-pressure accounting (all 0 with PreemptMode::Off) ---
    std::uint64_t preemptions = 0;      ///< eviction events
    std::uint64_t restores = 0;         ///< restore events
    int requestsPreempted = 0;          ///< distinct requests evicted
    std::uint64_t kvPagesEvicted = 0;   ///< pages freed for recompute
    Bytes swapOutBytes = 0;             ///< total host-link traffic out
    Bytes swapInBytes = 0;              ///< total host-link traffic in

    // --- availability / degradation accounting (all 0 with faults,
    // timeouts, retries and shedding off) ----------------------------
    int requestsTimedOut = 0; ///< abandoned at the client deadline
    int requestsShed = 0;     ///< rejected by the load-shedding gate
    int requestsRetried = 0;  ///< backoff re-submissions (attempt > 0)
    /** Tokens generated for attempts that never completed (timed out
     * mid-flight, or recompute work redone after a fault eviction that
     * ultimately timed out) — the throughput the failure burned. */
    std::uint64_t wastedTokens = 0;
    int channelsFailed = 0;      ///< permanent channel losses
    int channelsBrownedOut = 0;  ///< transient offline events
    std::uint64_t faultPreemptions = 0; ///< force-evictions by channel loss
    std::uint64_t kvPagesLost = 0;      ///< capacity pages lost to failures
    /** Time-to-recovery: fault boundary -> last force-evicted victim
     * restored (or abandoned), one sample per fault event that evicted
     * at least one request. */
    LatencyStats recoveryUs;
    /** Goodput: completed requests that also met BOTH their TTFT and
     * per-token SLO targets, and the output tokens they produced. */
    int requestsInSlo = 0;
    std::uint64_t goodputTokens = 0;

    // --- prefix sharing (all 0 with kv.prefixSharing off; DESIGN §13)
    std::uint64_t prefixAdmissions = 0; ///< index walks at admission
    std::uint64_t prefixHits = 0;       ///< admissions with >0 cached
    std::uint64_t prefixTokensDeduped = 0; ///< prefill tokens skipped
    std::uint64_t prefixPagesDeduped = 0;  ///< pages bound by reference
    std::uint64_t prefixCowCopies = 0;     ///< shared-tail copy-on-writes
    std::uint64_t prefixPagesPublished = 0; ///< private pages indexed
    std::uint64_t prefixPagesReclaimed = 0; ///< cached pages repurposed
    double prefixHitRate = 0.0; ///< prefixHits / prefixAdmissions

    /** SLO-attaining generation throughput over the makespan. */
    double goodputTokensPerSecond() const;

    /** Latency distributions in microseconds. */
    LatencyStats ttftUs;
    /** TTFT decomposition: per-request queueing, prefill and
     * first-decode spans. Component cycle spans sum to ttft()
     * exactly. */
    LatencyStats queueUs;
    LatencyStats prefillUs;
    LatencyStats firstDecodeUs;
    LatencyStats tbtUs; ///< mean time between tokens, per request
    LatencyStats e2eUs;
    /** Per-restore eviction span (eviction boundary -> restore
     * boundary), one sample per restore event. */
    LatencyStats restoreUs;
    /** Per-request total cycles spent evicted, sampled for finished
     * requests that were preempted at least once. TTFT/TBT
     * decompositions still sum exactly — these spans sit inside the
     * prefill / inter-token gaps they inflate. */
    LatencyStats preemptedUs;
    /** End-to-end latency normalized per output token (ms/token) —
     * the request-size-independent SLO metric. */
    LatencyStats perTokenMs;

    /** Per-priority-class breakdown, ascending class id. Always has
     * at least one entry for a run that submitted requests. */
    std::vector<ClassServingReport> classes;

    /** DRAM arbitration stats from the latency model's backing engine
     * (memSched.valid false when the model never ran it). */
    MemSchedSummary memSched;

    /** Generation throughput over the makespan. */
    double tokensPerSecond() const;

    /** The breakdown of @p priority_class (an empty one if unseen). */
    const ClassServingReport &classReport(int priority_class) const;
};

class ServingEngine
{
  public:
    ServingEngine(const ServingConfig &cfg, TrafficModel &traffic,
                  IterationLatencyModel &latency);

    /**
     * Drain the traffic model into the pool and serve to completion
     * (or to the safety horizon). Call once per engine instance.
     */
    ServingReport run();

    /** Per-iteration rows, one per executed iteration. */
    const std::vector<IterationTraceRow> &trace() const { return trace_; }

    const RequestPool &pool() const { return pool_; }
    const PagedKvCache &kv() const { return kv_; }
    const FaultModel &fault() const { return fault_; }

  private:
    ServingConfig cfg_;
    TrafficModel &traffic_;
    IterationLatencyModel &latency_;

    RequestPool pool_;
    PagedKvCache kv_;
    FaultModel fault_; ///< before scheduler_: it holds a pointer to it
    BatchScheduler scheduler_;
    Rng retryRng_; ///< dedicated stream; drawn only when retries fire
    std::vector<IterationTraceRow> trace_;
    bool ran_ = false;
};

} // namespace neupims::runtime

#endif // NEUPIMS_RUNTIME_SERVING_ENGINE_H_
