/**
 * @file
 * Orca-style iteration-level batch scheduler (paper §2.2, Fig. 7),
 * phase-aware: requests admitted from the pool first move through the
 * prefill phase (whole-prompt, or fixed-token-budget chunked
 * admission) before joining decode.
 *
 * At every iteration boundary the scheduler retires finished
 * requests, admits waiting ones while the paged KV cache has room,
 * assigns newly admitted requests to PIM channels (greedy min-load
 * bin packing for NeuPIMs, round-robin for the naive baseline),
 * schedules prefill slices against the per-iteration token budget —
 * either piggybacked onto the decode iteration (the prompt GEMM rows
 * ride the NPU while the PIM side runs decode MHA) or as dedicated
 * prefill-only iterations. The schedule says which requests run on
 * which channel; the iteration models split the decode batch into
 * Algorithm-3 sub-batches where they price it.
 *
 * Every *ordering* decision the scheduler makes — admission order,
 * prefill-token-budget sharing, victim choice under memory pressure,
 * restore order, packing urgency — derives from the scheduling
 * policy's one rank per request (runtime/sched_policy.h); Fcfs ranks
 * every request alike and reproduces the historical FIFO/age-order
 * behavior bit-for-bit.
 *
 * KV memory pressure is a first-class, priced event rather than a
 * stall: with PreemptConfig enabled, an iteration that cannot reserve
 * the pages its decode appends and prefill slices need preempts
 * victim requests at the boundary (pluggable victim selection) —
 * Recompute frees the victim's pages and re-runs its sequence through
 * the chunked-prefill path; Swap parks the pages in a host tier over
 * a modeled link whose transfer time the iteration models price.
 * Preempted requests are restored, in rank order (ties FIFO), before
 * any new admission.
 * PreemptConfig::Off keeps the admission-stall behavior bit-for-bit
 * for runs that fit; KV capacity is a hard limit, so a decode append
 * that finds no free page stops the run.
 */

#ifndef NEUPIMS_RUNTIME_BATCH_SCHEDULER_H_
#define NEUPIMS_RUNTIME_BATCH_SCHEDULER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/bin_packing.h"
#include "runtime/kv_cache.h"
#include "runtime/latency_model.h"
#include "runtime/request_pool.h"
#include "runtime/sched_policy.h"

namespace neupims::runtime {

/** How admitted prompts are routed through the prefill phase. */
struct PrefillConfig
{
    /** Per-iteration prompt-token budget shared by all prefilling
     * requests in pressure order (chunked prefill); 0 = no budget,
     * each prefilling request processes its whole remaining prompt
     * in a single iteration. */
    int chunkTokens = 256;
    /**
     * Mix prefill slices into decode iterations (the NPU prefill work
     * overlaps the PIM decode MHA). When false, prefill runs in
     * dedicated iterations that stall decode until the prompt pass
     * completes (classic stall-the-world prefill).
     */
    bool piggyback = true;
};

/** What happens when an iteration cannot reserve KV pages. */
enum class PreemptMode : std::uint8_t
{
    /** Admission stalls while the cache is full; a decode append
     * that finds no free page is fatal (the run must fit). */
    Off,
    /** Free the victim's pages; on restore, re-run its prompt plus
     * already-generated tokens through the chunked-prefill path
     * (cursor reset, generated-token count preserved). */
    Recompute,
    /** Move the victim's pages to a host tier over the modeled swap
     * link; on restore, transfer them back (cursor preserved). */
    Swap,
};

struct PreemptConfig
{
    PreemptMode mode = PreemptMode::Off;
    VictimPolicy victim = VictimPolicy::LifoYoungest;
    /** Host link bandwidth for Swap transfers. At the 1 GHz clock
     * domain (1 cycle == 1 ns), X GB/s is exactly X bytes/cycle. */
    double swapGBps = 64.0;

    bool enabled() const { return mode != PreemptMode::Off; }
    double swapBytesPerCycle() const { return swapGBps; }
};

/** Parse "off|recompute|swap"; fatal() on unknown names. The
 * *Name inverse round-trips exactly (victim and scheduling-policy
 * helpers live in runtime/sched_policy.h). */
PreemptMode preemptModeByName(const std::string &name);
const char *preemptModeName(PreemptMode mode);

/**
 * Load-shedding admission gate (graceful degradation, DESIGN.md §10):
 * when a watermark trips at a boundary, the scheduler sheds the
 * waiting requests the policy ranks LAST (Fcfs: drop-tail),
 * capped at max(1, waiting/4) per boundary so overload degrades
 * smoothly instead of collapsing the queue in one burst. Both
 * watermarks disabled (the default) leaves admission byte-identical.
 */
struct ShedConfig
{
    /** Shed when the oldest waiting request has waited longer than
     * this (cycles; 0 = disabled). */
    Cycle maxWaitCycles = 0;
    /** Shed when the free-page fraction of live KV capacity falls
     * below this (0 = disabled). */
    double kvHeadroom = 0.0;

    bool
    enabled() const
    {
        return maxWaitCycles > 0 || kvHeadroom > 0.0;
    }
};

struct SchedulerConfig
{
    int channels = 32;
    int maxBatch = 256;
    bool minLoadPacking = true; ///< Algorithm 2 vs round-robin
    MhaLatencyParams estimator;
    PrefillConfig prefill;
    PreemptConfig preempt;
    /** The scheduling policy whose rank orders admission, the
     * prefill budget, victims, restores and packing urgency — see
     * runtime/sched_policy.h. Fcfs reproduces the pre-policy
     * scheduler bit-for-bit. */
    SchedPolicyConfig policy;
    /** Load-shedding watermarks (disabled by default). */
    ShedConfig shed;
};

/** One request's prefill work within an iteration. */
struct PrefillSlice
{
    Request *req = nullptr;
    int startToken = 0; ///< prompt tokens already prefilled before
    int tokens = 0;     ///< prompt tokens processed this iteration
};

/** The work the scheduler hands the executor for one iteration. */
struct IterationSchedule
{
    /** Decode-phase participants: each emits one token this
     * iteration, on its request's channel. How they execute (the
     * Algorithm-3 split) is the iteration model's to decide. */
    std::vector<Request *> batch;
    /** Prefill slices scheduled this iteration, in pressure order. */
    std::vector<PrefillSlice> prefill;
    std::vector<double> channelLoads; ///< Algorithm-1 estimates
    int admitted = 0;

    // --- memory-pressure events decided at this boundary ------------
    /** Victims evicted this iteration (engine stamps their spans). */
    std::vector<Request *> preemptedNow;
    /** Previously preempted requests restored into this iteration. */
    std::vector<Request *> restoredNow;
    /** Waiting-queue heads dropped because their sequence can never
     * fit a channel's KV capacity (preemption enabled only). */
    std::vector<RequestId> droppedNeverFit;
    /** The admission pick no channel could host this boundary (it was
     * requeued; kInvalidId if admission never blocked). Under a
     * reordering policy this need not be the waiting-queue head — the
     * engine's cannot-ever-place drop must target it, not the head. */
    RequestId admissionBlockedBy = kInvalidId;
    Bytes swapOutBytes = 0; ///< victim pages moved to the host tier
    Bytes swapInBytes = 0;  ///< restored pages moved back on-device
    /** Host-link rate for pricing swap traffic (0 = no swap tier). */
    double swapBytesPerCycle = 0.0;

    // --- fault events decided at this boundary ----------------------
    /** Subset of preemptedNow force-evicted because their channel
     * failed (KV pages lost; always recompute-mode). The engine
     * tracks these for time-to-recovery accounting. */
    std::vector<Request *> faultPreemptedNow;
    /** Waiting requests shed by the load-shedding gate (they never
     * held KV; the engine may schedule client retries). */
    std::vector<RequestId> shedNow;
    /** Per-channel straggler inflation factors at this boundary
     * (empty = no active window; both iteration models price it via
     * stragglerInflation()). */
    std::vector<double> channelSlowdowns;

    /**
     * Iteration-latency inflation from active straggler windows: the
     * iteration finishes when its slowest channel does, so the factor
     * is max(load_ch * slow_ch) / max(load_ch) over channels, clamped
     * to >= 1 (with no channel loads, the max slowdown). 1.0 when no
     * window is active — both iteration models multiply their result
     * by this, pricing stragglers identically.
     */
    double stragglerInflation() const;

    int batchSize() const { return static_cast<int>(batch.size()); }

    /** Total prompt tokens prefilled this iteration. */
    int
    prefillTokens() const
    {
        int n = 0;
        for (const auto &s : prefill)
            n += s.tokens;
        return n;
    }

    /** No decode work and no prefill work this iteration. */
    bool empty() const { return batch.empty() && prefill.empty(); }
};

/** Cumulative memory-pressure counters across a scheduler's life. */
struct PreemptStats
{
    std::uint64_t preemptions = 0; ///< eviction events
    std::uint64_t restores = 0;    ///< restore events
    std::uint64_t pagesFreed = 0;  ///< device pages released by evicts
    Bytes swapOutBytes = 0;
    Bytes swapInBytes = 0;

    // --- fault & degradation counters (0 with faults/shedding off) --
    std::uint64_t faultPreemptions = 0; ///< evicted by channel loss
    std::uint64_t kvPagesLost = 0; ///< capacity pages lost to failures
    int channelsFailed = 0;        ///< permanent channel failures
    int brownouts = 0;             ///< transient offline windows begun
};

class FaultModel;

class BatchScheduler
{
  public:
    /**
     * @p fault (optional) injects channel faults at iteration
     * boundaries (runtime/fault_model.h). An enabled fault model
     * requires preemption: channel-loss recovery
     * force-preempts residents in recompute mode and re-dispatches
     * them through the restore/prefill path.
     */
    BatchScheduler(const SchedulerConfig &cfg, RequestPool &pool,
                   PagedKvCache &kv, FaultModel *fault = nullptr);

    const SchedulerConfig &config() const { return cfg_; }

    /**
     * Build the schedule for the next iteration. @p now is the
     * simulated clock at this boundary — the scheduling policy's
     * aging/deadline input (time-free callers may pass 0, degrading
     * time-aware policies to their tie-break orders).
     *
     * The schedule is the scheduler's own storage, rebuilt in place
     * at every boundary (DESIGN.md §6): the reference stays valid
     * until the next call, which overwrites it. Copy it to keep it.
     */
    const IterationSchedule &scheduleIteration(Cycle now = 0);

    /**
     * Account one completed iteration of @p schedule: every prefill
     * slice advances its request's prefill cursor (transitioning it
     * to decode when the prompt is done), every decode participant
     * appends one KV token and advances, and finished requests
     * release their pages. @return number of retired requests.
     */
    int completeIteration(const IterationSchedule &schedule);

    const PreemptStats &preemptStats() const { return preemptStats_; }

  private:
    /**
     * Policy's next admission pick from the waiting queue, dropping
     * never-fitting picks as they surface (preemption only);
     * kInvalidId when the queue drains. The pick is the first lowest
     * rank, so ties keep arrival order.
     */
    RequestId nextAdmission(IterationSchedule &out);

    /** Mark in urgent_ the channels currently hosting at least one
     * urgent resident. */
    void markUrgentChannels();

    /**
     * Shared packing core: min-load (or round-robin) among channels
     * satisfying @p room. Non-urgent requests prefer channels
     * hosting no urgent resident, keeping urgent KV headroom without
     * distorting the load balance.
     */
    template <typename Room>
    ChannelId placeByUrgency(const Request &req,
                             const std::vector<double> &loads,
                             const Room &room);

    /** Pick a channel for @p req, honoring KV capacity and the
     * policy's packing urgency; -1 if full. */
    ChannelId pickChannel(const Request &req,
                          std::vector<double> &loads);

    /** Channel with >= @p pages free beyond this iteration's
     * reservations (reserved_), placed by packing policy + @p req's
     * urgency. */
    ChannelId pickChannelWithPages(const Request &req, std::int64_t pages,
                                   const std::vector<double> &loads);

    /** Fill @p out.prefill from the prefilling members of running_,
     * handing the token budget out in the policy's pressure order. */
    void schedulePrefill(IterationSchedule &out);

    /** Whether KV pages are reserved chunk-by-chunk as prefill
     * advances (preemption on) instead of whole-prompt at admission. */
    bool lazyKvAlloc() const;

    /** Tokens whose pages admission must secure up-front for @p req. */
    int admissionTokens(const Request &req) const;

    /**
     * Restore preempted requests (first lowest rank, ties FIFO) into
     * pages this iteration's demands left over (reserved_, updated
     * as restores commit); restored requests join the batch at the
     * next boundary.
     */
    void restorePreempted(IterationSchedule &out,
                          std::vector<double> &loads);

    /**
     * Preempt victims until every channel can reserve the pages this
     * iteration's decode appends and prefill slices demand. Leaves
     * the pages reserved per channel in reserved_ (consumed at
     * completeIteration; restores must not take them).
     */
    void resolveMemoryPressure(IterationSchedule &out,
                               std::vector<double> &loads);

    /** Apply fault transitions crossing this boundary: force-preempt
     * residents of freshly failed channels (recompute; their pages
     * are lost), mark brownouts offline and restore elapsed ones.
     * Runs before channel loads are computed, so victims never count
     * toward this boundary's packing. */
    void applyFaults(IterationSchedule &out);

    /** Shed the last highest-ranked waiting requests while a
     * watermark trips, capped per boundary (graceful degradation). */
    void shedOverload(IterationSchedule &out);

    SchedulerConfig cfg_;
    RequestPool &pool_;
    PagedKvCache &kv_;
    FaultModel *fault_ = nullptr;
    MhaLatencyEstimator estimator_;
    PreemptStats preemptStats_;
    /** Clock of the boundary being scheduled (the ranks' time). */
    Cycle now_ = 0;
    int rrCursor_ = 0;

    /** One page-demanding unit of a schedule: a decode append (one
     * token) or a prefill slice (chunk growth). */
    struct Demand
    {
        Request *req;
        int tokens; ///< KV growth this iteration
    };

    // --- boundary storage, rebuilt in place every boundary ----------
    // Cleared, never freed: a steady-state boundary allocates nothing
    // (DESIGN.md §6).
    IterationSchedule schedule_; ///< what scheduleIteration returns
    std::vector<Request *> running_; ///< this boundary's running set
    std::vector<Request *> prefilling_; ///< in pressure order
    std::vector<std::vector<Demand>> demands_; ///< per channel
    std::vector<std::int64_t> reserved_;       ///< pages per channel
    std::vector<bool> urgent_; ///< markUrgentChannels' output
};

} // namespace neupims::runtime

#endif // NEUPIMS_RUNTIME_BATCH_SCHEDULER_H_
