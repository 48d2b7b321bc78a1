/**
 * @file
 * An LLM inference request as tracked by the serving scheduler
 * (paper Fig. 7: the request pool table rows).
 *
 * Requests move through an explicit two-phase lifecycle: the
 * compute-bound *prefill* (initiation) pass over the prompt, then the
 * memory-bound *decode* (incremental generation) pass NeuPIMs
 * accelerates with PIM GEMV. The prefill cursor (`prefilledTokens`)
 * tracks chunked-prefill progress; a request only generates tokens
 * once the cursor reaches `inputLength`.
 */

#ifndef NEUPIMS_RUNTIME_REQUEST_H_
#define NEUPIMS_RUNTIME_REQUEST_H_

#include <cstdint>
#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace neupims::runtime {

enum class RequestStatus : std::uint8_t
{
    Waiting, ///< queued, not yet admitted to the batch
    Running, ///< in the active batch, prefilling or generating
    Done,    ///< produced all output tokens
    Dropped, ///< rejected: can never fit the device's KV cache
    /** Evicted from the batch under KV memory pressure; its pages were
     * freed (recompute) or moved to the host tier (swap). Rejoins the
     * running batch when the scheduler restores it. */
    Preempted,
    /** The client's deadline expired before completion; the engine
     * aborted it mid-flight and freed its KV pages. */
    TimedOut,
    /** Rejected by the load-shedding admission gate while waiting
     * (overload watermark tripped; never held KV pages). */
    Shed,
};

/** Whether @p status is terminal: the request left every live queue
 * and is counted in exactly one terminal bucket. */
inline bool
isTerminalStatus(RequestStatus status)
{
    return status == RequestStatus::Done ||
           status == RequestStatus::Dropped ||
           status == RequestStatus::TimedOut ||
           status == RequestStatus::Shed;
}

enum class RequestPhase : std::uint8_t
{
    Prefill, ///< prompt pass in progress (prefilledTokens < inputLength)
    Decode,  ///< prompt processed; generating one token per iteration
};

struct Request
{
    RequestId id = kInvalidId;
    int inputLength = 1;      ///< prompt tokens
    int outputLength = 1;     ///< tokens to generate
    int generatedTokens = 0;  ///< tokens produced so far
    int prefilledTokens = 0;  ///< prompt tokens processed so far
    ChannelId channel = kInvalidId; ///< PIM channel holding its KV cache
    RequestStatus status = RequestStatus::Waiting;
    RequestPhase phase = RequestPhase::Prefill;

    // --- scheduling-policy inputs (runtime/sched_policy.h) ----------
    /** Priority class, higher = more important. 0 is the default
     * class; the Fcfs policy ignores it entirely. */
    int priorityClass = 0;
    /** Per-request TTFT target in cycles (0 = none; SLO-aware
     * policies and per-class attainment fall back to the configured
     * default). */
    Cycle ttftSlo = 0;
    /** Per-generated-token target in cycles (0 = none). */
    Cycle tptSlo = 0;

    // --- prefix sharing (runtime/kv_cache.h, DESIGN §13) ------------
    /** Conversation this request belongs to (-1 = standalone). Pure
     * metadata for reports; sharing keys on promptTokens content. */
    std::int64_t sessionId = -1;
    /** Shared-prefix cohort (-1 = none): requests in one group carry
     * the same synthesized system-prompt token stream. */
    std::int64_t prefixGroup = -1;
    /** Synthesized prompt token-ids (empty = sharing cannot apply;
     * size == inputLength otherwise). */
    std::vector<std::int32_t> promptTokens;
    /** Prompt tokens served from the prefix index at the current
     * admission/restore (prefill started past them). */
    int cachedPrefixTokens = 0;

    // --- client-side robustness (runtime/fault_model.h, DESIGN §10) -
    /** Client deadline relative to this attempt's arrival (cycles;
     * 0 = infinitely patient client). */
    Cycle clientTimeout = 0;
    /** Retry generation: 0 = original submission, n = n-th
     * backoff-delayed re-submission of an abandoned attempt. */
    int attempt = 0;
    /** The prior attempt this re-submission replaces (kInvalidId for
     * originals) — retry chains are walkable for token conservation. */
    RequestId retryOf = kInvalidId;

    // --- serving timeline (simulated cycles; kCycleMax = not yet) ----
    Cycle arrivalCycle = 0;           ///< entered the request pool
    Cycle admitCycle = kCycleMax;     ///< joined the running batch
    Cycle prefillEndCycle = kCycleMax; ///< prompt fully prefilled
    Cycle firstTokenCycle = kCycleMax; ///< first output token done
    Cycle finishCycle = kCycleMax;    ///< last output token done

    // --- memory-pressure lifecycle ----------------------------------
    int preemptions = 0; ///< times evicted under KV pressure
    /** Prompt tokens the recompute path must re-prefill beyond the
     * original prompt (the generated tokens whose K/V were discarded).
     * 0 except between a Recompute preemption and the restore's
     * prefill completion. */
    int recomputeTokens = 0;
    Cycle preemptStartCycle = kCycleMax; ///< current eviction began
    Cycle preemptedCycles = 0; ///< total cycles spent evicted

    /** Cycle the client abandons this attempt (kCycleMax = never). */
    Cycle
    deadlineCycle() const
    {
        return clientTimeout == 0 ? kCycleMax
                                  : arrivalCycle + clientTimeout;
    }

    /** Time to first token; @pre firstTokenCycle is stamped. */
    Cycle
    ttft() const
    {
        return firstTokenCycle - arrivalCycle;
    }

    // --- TTFT decomposition (queueing + prefill + first decode) -----
    // The three components are exact cycle spans that sum to ttft():
    // arrival -> admit -> prefillEnd -> firstToken.

    /** Admission wait; @pre admitCycle is stamped. */
    Cycle
    queueingDelay() const
    {
        return admitCycle - arrivalCycle;
    }

    /** Prompt-pass span; @pre prefillEndCycle is stamped. */
    Cycle
    prefillLatency() const
    {
        return prefillEndCycle - admitCycle;
    }

    /** First generation iteration; @pre firstTokenCycle is stamped. */
    Cycle
    firstDecodeLatency() const
    {
        return firstTokenCycle - prefillEndCycle;
    }

    /** End-to-end latency; @pre finishCycle is stamped. */
    Cycle
    endToEnd() const
    {
        return finishCycle - arrivalCycle;
    }

    /** Mean time between output tokens after the first. */
    double
    timeBetweenTokens() const
    {
        if (outputLength <= 1)
            return 0.0;
        return static_cast<double>(finishCycle - firstTokenCycle) /
               static_cast<double>(outputLength - 1);
    }

    /** Current KV-cache length: prompt plus generated tokens. */
    int
    currentSeqLen() const
    {
        return inputLength + generatedTokens;
    }

    bool
    finished() const
    {
        return generatedTokens >= outputLength;
    }

    // --- phase machine ----------------------------------------------

    bool prefilling() const { return phase == RequestPhase::Prefill; }
    bool decoding() const { return phase == RequestPhase::Decode; }
    bool preempted() const { return status == RequestStatus::Preempted; }

    /**
     * Tokens the prefill pass must cover before decode (re)starts: the
     * prompt, plus — after a Recompute preemption — the generated
     * tokens whose K/V entries were discarded and must be rebuilt.
     */
    int
    prefillTargetTokens() const
    {
        return inputLength + recomputeTokens;
    }

    /** Prompt tokens not yet prefilled. */
    int
    remainingPrefill() const
    {
        return prefillTargetTokens() - prefilledTokens;
    }

    /** Enter the prefill phase on admission. */
    void
    beginPrefill()
    {
        phase = RequestPhase::Prefill;
        prefilledTokens = 0;
    }

    /**
     * Start the prefill cursor past a prefix served from the KV
     * prefix index (cache hits collapse the compute; the pages are
     * already bound). The cap in the allocator guarantees
     * @p cached < prefillTargetTokens(), so at least one token always
     * prefills and the Decode transition still runs through
     * advancePrefill. @pre prefilling() and prefilledTokens == 0
     */
    void
    skipCachedPrefix(int cached)
    {
        NEUPIMS_ASSERT(prefilling() && prefilledTokens == 0,
                       "prefix skip mid-prefill on request ", id);
        NEUPIMS_ASSERT(cached >= 0 && cached < prefillTargetTokens(),
                       "cached prefix covers the whole target on "
                       "request ", id);
        prefilledTokens = cached;
        cachedPrefixTokens = cached;
    }

    /**
     * Advance the prefill cursor by @p tokens; transitions to Decode
     * when the whole prompt has been processed.
     * @pre prefilling() and tokens <= remainingPrefill()
     */
    void
    advancePrefill(int tokens)
    {
        NEUPIMS_ASSERT(prefilling(), "request ", id, " not in prefill");
        NEUPIMS_ASSERT(tokens >= 1 && tokens <= remainingPrefill(),
                       "prefill overrun on request ", id);
        prefilledTokens += tokens;
        if (prefilledTokens >= prefillTargetTokens()) {
            phase = RequestPhase::Decode;
            recomputeTokens = 0;
        }
    }

    // --- memory-pressure transitions --------------------------------

    /**
     * Evict under KV pressure at an iteration boundary. With
     * @p recompute the K/V entries were discarded, so the restore must
     * re-run the prompt AND the already-generated tokens through the
     * prefill path (cursor reset, generated-token count preserved);
     * without it (swap) the cursor and phase survive intact.
     * @pre status == Running
     */
    void
    preempt(bool recompute)
    {
        NEUPIMS_ASSERT(status == RequestStatus::Running,
                       "preempting non-running request ", id);
        status = RequestStatus::Preempted;
        ++preemptions;
        if (recompute) {
            phase = RequestPhase::Prefill;
            prefilledTokens = 0;
            recomputeTokens = generatedTokens;
        }
    }

    /** Rejoin the running batch after eviction (pages restored or the
     * recompute prefill about to start). @pre preempted() */
    void
    restore()
    {
        NEUPIMS_ASSERT(preempted(),
                       "restoring non-preempted request ", id);
        status = RequestStatus::Running;
    }

    /** Advance one generation iteration (one token).
     * @pre decoding() — a request never decodes mid-prefill. */
    void
    advance()
    {
        NEUPIMS_ASSERT(decoding(), "request ", id,
                       " decoded before prefill completed");
        ++generatedTokens;
        if (finished())
            status = RequestStatus::Done;
    }
};

} // namespace neupims::runtime

#endif // NEUPIMS_RUNTIME_REQUEST_H_
