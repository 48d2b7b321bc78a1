#include "runtime/sched_policy.h"

#include <limits>

#include "common/log.h"

namespace neupims::runtime {

VictimPolicy
victimPolicyByName(const std::string &name)
{
    if (name == "lifo")
        return VictimPolicy::LifoYoungest;
    if (name == "fewest")
        return VictimPolicy::FewestPages;
    if (name == "longest")
        return VictimPolicy::LongestRemaining;
    fatal("unknown victim policy '", name,
          "' (expected lifo|fewest|longest)");
}

const char *
victimPolicyName(VictimPolicy policy)
{
    switch (policy) {
    case VictimPolicy::LifoYoungest:
        return "lifo";
    case VictimPolicy::FewestPages:
        return "fewest";
    case VictimPolicy::LongestRemaining:
        return "longest";
    }
    return "?";
}

SchedPolicyKind
schedulingPolicyByName(const std::string &name)
{
    if (name == "fcfs")
        return SchedPolicyKind::Fcfs;
    if (name == "priority")
        return SchedPolicyKind::PriorityClass;
    if (name == "edf")
        return SchedPolicyKind::SloEdf;
    fatal("unknown scheduling policy '", name,
          "' (expected fcfs|priority|edf)");
}

const char *
schedulingPolicyName(SchedPolicyKind kind)
{
    switch (kind) {
    case SchedPolicyKind::Fcfs:
        return "fcfs";
    case SchedPolicyKind::PriorityClass:
        return "priority";
    case SchedPolicyKind::SloEdf:
        return "edf";
    }
    return "?";
}

double
victimScoreFor(VictimPolicy policy, const Request &req,
               std::int64_t pages_held)
{
    switch (policy) {
    case VictimPolicy::LifoYoungest:
        // Constant: the scheduler resolves score ties toward the most
        // recently (re)admitted resident, which IS the LIFO order.
        return 0.0;
    case VictimPolicy::FewestPages:
        return -static_cast<double>(pages_held);
    case VictimPolicy::LongestRemaining:
        return static_cast<double>(req.remainingPrefill() +
                                   req.outputLength -
                                   req.generatedTokens);
    }
    return 0.0;
}

namespace {

/** Cycles @p req has spent in the system (0 before its arrival). */
Cycle
waitedCycles(const Request &req, Cycle now)
{
    return now > req.arrivalCycle ? now - req.arrivalCycle : 0;
}

} // namespace

double
rank(const SchedPolicyConfig &cfg, const Request &req, Cycle now)
{
    switch (cfg.kind) {
    case SchedPolicyKind::Fcfs:
        return 0.0;
    case SchedPolicyKind::PriorityClass: {
        // Minus the effective class: waiting promotes a request one
        // class per aging period, so a request stuck behind higher
        // classes eventually outranks every later arrival.
        std::int64_t cls = req.priorityClass;
        if (cfg.agingCycles > 0)
            cls += static_cast<std::int64_t>(waitedCycles(req, now) /
                                             cfg.agingCycles);
        return -static_cast<double>(cls);
    }
    case SchedPolicyKind::SloEdf: {
        // Slack to the next deadline: arrival + TTFT target before
        // the first token (earliest deadline first), then the next
        // token's firstToken + generated * per-token target (least
        // slack first). Slack only shrinks while a request waits, so
        // EDF needs no explicit aging.
        Cycle deadline;
        if (req.firstTokenCycle == kCycleMax) {
            Cycle ttft = req.ttftSlo ? req.ttftSlo : cfg.defaultTtftSlo;
            deadline = req.arrivalCycle + ttft;
        } else {
            Cycle tpt = req.tptSlo ? req.tptSlo : cfg.defaultTptSlo;
            deadline = req.firstTokenCycle +
                       static_cast<Cycle>(req.generatedTokens) * tpt;
        }
        return static_cast<double>(deadline) - static_cast<double>(now);
    }
    }
    return 0.0;
}

double
lowestRank(const SchedPolicyConfig &cfg)
{
    return cfg.kind == SchedPolicyKind::Fcfs
               ? 0.0
               : -std::numeric_limits<double>::infinity();
}

bool
outranks(const SchedPolicyConfig &cfg, const Request &a,
         const Request &b, Cycle now)
{
    double ra = rank(cfg, a, now);
    double rb = rank(cfg, b, now);
    if (ra != rb)
        return ra < rb;
    return a.id < b.id;
}

bool
urgent(const SchedPolicyConfig &cfg, const Request &req, Cycle now)
{
    double urgent_rank = 0.0; // Fcfs: every request
    switch (cfg.kind) {
    case SchedPolicyKind::Fcfs:
        break;
    case SchedPolicyKind::PriorityClass:
        urgent_rank = -1.0; // effective class >= 1
        break;
    case SchedPolicyKind::SloEdf:
        // Requests with more slack than the default TTFT budget are
        // comfortable and consolidate away from urgent ones.
        urgent_rank = static_cast<double>(cfg.defaultTtftSlo);
        break;
    }
    return rank(cfg, req, now) <= urgent_rank;
}

} // namespace neupims::runtime
