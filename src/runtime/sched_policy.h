/**
 * @file
 * Scheduling policies for the Orca-style batch scheduler, each stated
 * as one rank per request.
 *
 * A policy makes one decision, which request is served first, and
 * gives it as rank(cfg, req, now): lower is served first. The
 * scheduler derives every ordering from that rank (DESIGN.md §8):
 *
 *  - admission and restore take the first lowest rank, so ties keep
 *    arrival (waiting queue) or eviction (preempted queue) order;
 *  - the *pressure order* is (rank, id) (outranks): one strict total
 *    order shared by the per-iteration prefill-token budget and the
 *    memory-pressure resolution, where a demander may only evict
 *    residents it strictly outranks. Sharing one order keeps
 *    preemption livelock-free by construction (DESIGN.md §8.1);
 *  - a victim is the highest rank among the residents the demander
 *    outranks, the configured VictimPolicy breaking rank ties;
 *  - a request is *urgent* for the channel packer when its rank is
 *    at or below the policy's urgent rank; the packer keeps
 *    non-urgent requests off channels hosting urgent residents.
 *
 * The three built-in ranks:
 *
 *  - Fcfs: 0 for every request, so every order is submission order
 *    and every request is urgent (the pre-policy scheduler).
 *  - PriorityClass: minus the effective class, priorityClass plus
 *    one per agingCycles waited, so low classes cannot starve.
 *    Urgent from effective class 1.
 *  - SloEdf: the slack to the request's next deadline, its TTFT
 *    target before the first token and its per-token target after.
 *    Urgent when the slack is at most the default TTFT target.
 */

#ifndef NEUPIMS_RUNTIME_SCHED_POLICY_H_
#define NEUPIMS_RUNTIME_SCHED_POLICY_H_

#include <cstdint>
#include <string>

#include "common/types.h"
#include "runtime/request.h"

namespace neupims::runtime {

/** How a victim is chosen among a channel's eligible residents of
 * equal rank. */
enum class VictimPolicy : std::uint8_t
{
    LifoYoungest,     ///< most recently (re)admitted first (vLLM-style)
    FewestPages,      ///< cheapest to evict or transfer
    LongestRemaining, ///< most prefill+decode work still ahead
};

/** The built-in scheduling policies. */
enum class SchedPolicyKind : std::uint8_t
{
    Fcfs,          ///< submission order everywhere (legacy behavior)
    PriorityClass, ///< strict classes with anti-starvation aging
    SloEdf,        ///< TTFT-deadline EDF, least-slack during decode
};

/** Parse "lifo|fewest|longest" / "fcfs|priority|edf"; fatal() on
 * unknown names. The *Name inverses round-trip exactly. */
VictimPolicy victimPolicyByName(const std::string &name);
const char *victimPolicyName(VictimPolicy policy);
SchedPolicyKind schedulingPolicyByName(const std::string &name);
const char *schedulingPolicyName(SchedPolicyKind kind);

struct SchedPolicyConfig
{
    SchedPolicyKind kind = SchedPolicyKind::Fcfs;
    /**
     * PriorityClass anti-starvation aging: every agingCycles a request
     * has been in the system raises its effective class by one, so a
     * perpetually outranked request eventually outranks everything
     * that arrived after it. 0 disables aging (strict classes).
     */
    Cycle agingCycles = 50'000'000; // 50 ms
    /** Fallback SLO targets for requests that carry none of their
     * own (SloEdf deadlines and urgent rank, per-class attainment
     * reporting). */
    Cycle defaultTtftSlo = 250'000'000; // 250 ms to first token
    Cycle defaultTptSlo = 25'000'000;   // 25 ms per generated token
};

/**
 * The victim order the VictimPolicy enum encodes, as a score: among
 * eligible candidates of equal rank the scheduler evicts the highest
 * score, resolving ties toward the most recently (re)admitted, which
 * makes LifoYoungest exactly a constant score. @p pages_held is the
 * candidate's evictable device page count.
 */
double victimScoreFor(VictimPolicy policy, const Request &req,
                      std::int64_t pages_held);

/** @p req's rank at boundary clock @p now under @p cfg: lower is
 * served first. Fixed within a boundary; it may move between them
 * (aging, slack). */
double rank(const SchedPolicyConfig &cfg, const Request &req,
            Cycle now);

/** A bound no rank under @p cfg goes below: 0 for fcfs, whose every
 * rank is 0, and -infinity otherwise. A first-lowest-rank scan can
 * stop at the first request that reaches it. */
double lowestRank(const SchedPolicyConfig &cfg);

/** Whether @p a strictly outranks @p b: lower rank, ties by id. A
 * strict total order over live requests. */
bool outranks(const SchedPolicyConfig &cfg, const Request &a,
              const Request &b, Cycle now);

/** Whether the packer treats @p req as urgent: its rank is at or
 * below the policy's urgent rank. */
bool urgent(const SchedPolicyConfig &cfg, const Request &req,
            Cycle now);

} // namespace neupims::runtime

#endif // NEUPIMS_RUNTIME_SCHED_POLICY_H_
