/**
 * @file
 * Pluggable request-arrival traffic models for the serving engine.
 *
 * The paper evaluates warmed static batches (§8.1); serving a live
 * system means simulating request *arrival* over time. A TrafficModel
 * yields a finite, time-ordered stream of arrivals whose
 * input/output lengths come from the §8.1 dataset distributions:
 *
 *  - PoissonTraffic: open-loop Poisson process (exponential
 *    inter-arrival gaps) at a fixed mean rate — the standard serving
 *    benchmark model.
 *  - BurstyTraffic: Gamma-distributed gaps with shape < 1, so the
 *    same mean rate arrives in bursts separated by lulls (heavier
 *    tail than Poisson); shape 1 degenerates to Poisson.
 *  - ReplayTraffic: replays an explicit arrival list — either a
 *    fixed-rate synthetic trace or a CSV trace
 *    (`arrival_us,input_tokens,output_tokens` rows, optionally
 *    extended with `session_id,prefix_group` columns).
 *  - Session traffic (makeSessionTraffic): multi-turn conversations —
 *    Poisson session arrivals, geometric turn counts, exponential
 *    think-time gaps between turns, and a hot fraction of sessions
 *    opening with a shared system prompt. Drives the KV prefix index
 *    (runtime/kv_cache.h, DESIGN §13).
 *
 * Prompt *content* is synthesized as deterministic token-ids: token p
 * of a stream is a pure hash of (stream id, p) — no RNG draws — so
 * two requests in one session (or one prefix group) share a
 * byte-identical prefix without any cross-request coupling in the
 * arrival-process randomness.
 *
 * All models are deterministic under a fixed seed (common/rng.h):
 * identical builds replay identical traces. The gap sampling uses
 * libm transcendentals (log/pow), so bit-stability across *different*
 * libm implementations is not guaranteed — the golden-trace tests pin
 * the glibc/x86-64 results and document regeneration.
 */

#ifndef NEUPIMS_RUNTIME_TRAFFIC_H_
#define NEUPIMS_RUNTIME_TRAFFIC_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "runtime/workload.h"

namespace neupims::runtime {

/** One request arrival: when it enters the pool and its lengths. */
struct ArrivalEvent
{
    Cycle time = 0; ///< arrival cycle (1 cycle == 1 ns)
    int inputLength = 1;
    int outputLength = 1;
    // --- scheduling-policy inputs (0 = classless / no target) -------
    int priorityClass = 0;
    Cycle ttftSlo = 0; ///< per-request TTFT target (cycles)
    Cycle tptSlo = 0;  ///< per-generated-token target (cycles)
    /** Client deadline relative to arrival (cycles; 0 = infinitely
     * patient — the engine never aborts). */
    Cycle clientTimeout = 0;
    // --- prefix sharing (runtime/kv_cache.h, DESIGN §13) ------------
    /** Conversation this arrival belongs to (-1 = standalone). */
    std::int64_t sessionId = -1;
    /** Shared-prefix cohort (-1 = none). */
    std::int64_t prefixGroup = -1;
    /** Synthesized prompt token-ids (empty = content-less arrival;
     * size == inputLength otherwise). */
    std::vector<std::int32_t> promptTokens;
};

/**
 * One priority class's share of an arrival mix: the fraction of
 * requests stamped with this class and the SLO targets they carry
 * (0 = no per-request target; policies fall back to defaults).
 */
struct PriorityClassSpec
{
    int priorityClass = 0;
    double share = 1.0;
    double ttftSloMs = 0.0;
    double tptSloMs = 0.0;
};

using ClassMix = std::vector<PriorityClassSpec>;

/**
 * Standard mixes by name — "uniform" (single classless tier),
 * "two-tier" (25% interactive class 1 with tight targets over a 75%
 * class-0 bulk tier), "three-tier" (10/30/60 interactive/standard/
 * batch) — fatal() on unknown names.
 */
ClassMix classMixByName(const std::string &name);

class TrafficModel
{
  public:
    virtual ~TrafficModel() = default;

    virtual const std::string &name() const = 0;

    /**
     * Next arrival, or nullopt when the trace is exhausted. Times are
     * non-decreasing across calls.
     */
    virtual std::optional<ArrivalEvent> next() = 0;

    /** Drain the remaining arrivals into a vector. */
    std::vector<ArrivalEvent> drain();

    /**
     * Stamp every subsequent arrival with a priority class drawn from
     * @p mix (shares normalized over their sum; deterministic under
     * @p seed, on an RNG stream independent of the gap/length
     * streams — an empty or single-default mix leaves arrivals
     * byte-identical to a mixless model).
     */
    void setClassMix(const ClassMix &mix, std::uint64_t seed);

    /**
     * Stamp every subsequent arrival with a client deadline of
     * @p timeout cycles after its arrival (0 = patient clients, the
     * default — arrivals stay byte-identical to a timeout-less
     * model). Uniform across classes; per-class deadlines can ride a
     * ClassMix extension later.
     */
    void setClientTimeout(Cycle timeout) { clientTimeout_ = timeout; }

  protected:
    /** Apply the mix and client deadline (if any) to @p ev; called by
     * next(). */
    void stampClass(ArrivalEvent &ev);

  private:
    ClassMix mix_;
    double shareSum_ = 0.0;
    Rng classRng_;
    Cycle clientTimeout_ = 0;
};

/** Open-loop Poisson arrivals at @p requests_per_second. */
class PoissonTraffic : public TrafficModel
{
  public:
    PoissonTraffic(const DatasetConfig &dataset, double requests_per_second,
                   int num_requests, std::uint64_t seed);

    const std::string &name() const override { return name_; }
    std::optional<ArrivalEvent> next() override;

  private:
    std::string name_;
    WorkloadGenerator gen_;
    Rng rng_;
    double cyclesPerArrival_;
    int remaining_;
    double now_ = 0.0; ///< running arrival time in cycles
};

/**
 * Bursty arrivals: Gamma(shape, mean = 1/rate) inter-arrival gaps.
 * shape < 1 clusters arrivals into bursts at the same long-run rate.
 */
class BurstyTraffic : public TrafficModel
{
  public:
    BurstyTraffic(const DatasetConfig &dataset, double requests_per_second,
                  double shape, int num_requests, std::uint64_t seed);

    const std::string &name() const override { return name_; }
    std::optional<ArrivalEvent> next() override;

  private:
    double sampleGamma();

    std::string name_;
    WorkloadGenerator gen_;
    Rng rng_;
    double cyclesPerArrival_;
    double shape_;
    int remaining_;
    double now_ = 0.0;
};

/** Replays an explicit arrival list (synthetic or CSV trace). */
class ReplayTraffic : public TrafficModel
{
  public:
    /** Replay @p events; they are sorted by time on construction. */
    ReplayTraffic(std::string name, std::vector<ArrivalEvent> events);

    /**
     * Fixed-rate trace: @p num_requests arrivals evenly spaced at
     * @p requests_per_second, lengths sampled from @p dataset.
     */
    static std::unique_ptr<ReplayTraffic>
    fixedRate(const DatasetConfig &dataset, double requests_per_second,
              int num_requests, std::uint64_t seed);

    /**
     * Parse a CSV trace: one `arrival_us,input_tokens,output_tokens`
     * row per request; blank lines and `#` comments are skipped, as
     * is a leading `arrival_us,...` header. fatal() on malformed rows.
     *
     * Rows may carry two optional trailing columns, `session_id` and
     * `prefix_group` (integers >= -1, -1 = none). A row with a group
     * synthesizes its prompt tokens from the group stream (all rows
     * in one group share their full common-length prefix); a row with
     * only a session id uses the session stream (turns of one
     * conversation share nested prefixes); a bare 3-column row stays
     * content-less — existing fixtures parse byte-identically.
     */
    static std::unique_ptr<ReplayTraffic> fromCsv(std::istream &in,
                                                  std::string name);
    static std::unique_ptr<ReplayTraffic>
    fromCsvFile(const std::string &path);

    /** Write the trace back out in the CSV format fromCsv() parses.
     * The `session_id,prefix_group` columns are emitted only when
     * some event carries one, so plain traces round-trip
     * byte-identically. */
    void writeCsv(std::ostream &out) const;

    const std::string &name() const override { return name_; }
    std::optional<ArrivalEvent> next() override;

    const std::vector<ArrivalEvent> &events() const { return events_; }

  private:
    std::string name_;
    std::vector<ArrivalEvent> events_;
    std::size_t cursor_ = 0;
};

// --- deterministic prompt token-id synthesis -------------------------------

/**
 * Token id at @p position of token stream @p streamId: a pure
 * splitmix64-style hash of the pair folded into a GPT-vocabulary
 * range — no RNG state, so any two holders of the same stream id see
 * byte-identical content at every position.
 */
std::int32_t promptTokenAt(std::uint64_t streamId, int position);

/** Private token stream of conversation @p sessionId. */
std::uint64_t sessionTokenStream(std::int64_t sessionId);

/** Shared token stream of prefix cohort @p prefixGroup. */
std::uint64_t groupTokenStream(std::int64_t prefixGroup);

/**
 * Synthesize a @p length -token prompt: the first
 * min(@p groupTokens, @p length) positions come from the group
 * stream of @p prefixGroup (the shared system prompt), the rest from
 * the session stream of @p sessionId. Because positions are stable,
 * a longer prompt from the same streams extends a shorter one — the
 * multi-turn "previous prompt + previous output + new user tokens"
 * structure falls out of length bookkeeping alone.
 */
std::vector<std::int32_t> synthesizePrompt(std::int64_t sessionId,
                                           std::int64_t prefixGroup,
                                           int groupTokens, int length);

// --- session-aware conversational traffic ----------------------------------

/** Shape of the conversational workload makeSessionTraffic builds. */
struct SessionTrafficConfig
{
    /** Fraction of sessions opening with the shared system prompt
     * (prefix group 0); the rest are cold standalone conversations. */
    double hotFraction = 0.75;
    /** Length of the shared system prompt in tokens. */
    int systemPromptTokens = 192;
    /** Mean conversation turns per session (geometric, capped at 8). */
    double meanTurns = 3.0;
    /** Mean client think time between turns (exponential gaps). */
    double thinkMs = 150.0;
};

/**
 * Conversational session traffic: sessions arrive Poisson at
 * @p requests_per_second / meanTurns (so the long-run *request* rate
 * matches the other models at the same nominal rate), each runs
 * 1 + Geometric turns capped at 8 with exponential think-time
 * gaps, and turn t's prompt is turn t-1's prompt plus its output plus
 * fresh user tokens (capped at the dataset max length). A hotFraction
 * of sessions prepend the shared system prompt. Exactly
 * @p num_requests arrivals are kept (earliest first). The result is a
 * pre-generated replay named "session".
 */
std::unique_ptr<TrafficModel>
makeSessionTraffic(const DatasetConfig &dataset,
                   double requests_per_second, int num_requests,
                   std::uint64_t seed,
                   const SessionTrafficConfig &cfg = {});

/**
 * Build a traffic model by name ("poisson", "bursty", "replay",
 * "session"); fatal() on unknown names. The replay model is the
 * synthetic fixed-rate trace; CSV replay uses
 * ReplayTraffic::fromCsvFile directly. "session" uses the default
 * SessionTrafficConfig; makeSessionTraffic takes a custom one.
 */
std::unique_ptr<TrafficModel>
makeTraffic(const std::string &kind, const DatasetConfig &dataset,
            double requests_per_second, int num_requests,
            std::uint64_t seed);

/** The three standard traffic-model names, sweep order ("session" is
 * opt-in — adding it here would grow every existing sweep). */
const std::vector<std::string> &standardTrafficKinds();

} // namespace neupims::runtime

#endif // NEUPIMS_RUNTIME_TRAFFIC_H_
