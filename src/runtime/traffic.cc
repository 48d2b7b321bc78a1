#include "runtime/traffic.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/log.h"

namespace neupims::runtime {

namespace {

constexpr double kCyclesPerSecond = 1e9; // 1 cycle == 1 ns

double
ratePeriodCycles(double requests_per_second)
{
    NEUPIMS_ASSERT(requests_per_second > 0.0,
                   "arrival rate must be positive");
    return kCyclesPerSecond / requests_per_second;
}

/** splitmix64 finalizer: the bijective mixer behind the token-id
 * synthesis (common/rng.h uses the same constants for seeding). */
std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

// --- deterministic prompt token-id synthesis -------------------------------

std::int32_t
promptTokenAt(std::uint64_t streamId, int position)
{
    NEUPIMS_ASSERT(position >= 0, "token position must be >= 0");
    // Pure hash of (stream, position): no RNG draws, so prompt
    // content never perturbs an arrival process's byte-exact trace.
    std::uint64_t z = mix64(
        streamId +
        0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(position) + 1));
    return static_cast<std::int32_t>(z % 50257ULL); // GPT vocabulary
}

std::uint64_t
sessionTokenStream(std::int64_t sessionId)
{
    return mix64(0x5e5510a1ULL ^
                 (static_cast<std::uint64_t>(sessionId) *
                  0x9e3779b97f4a7c15ULL));
}

std::uint64_t
groupTokenStream(std::int64_t prefixGroup)
{
    return mix64(0x96f19a0bULL ^
                 (static_cast<std::uint64_t>(prefixGroup) *
                  0xd1b54a32d192ed03ULL));
}

std::vector<std::int32_t>
synthesizePrompt(std::int64_t sessionId, std::int64_t prefixGroup,
                 int groupTokens, int length)
{
    NEUPIMS_ASSERT(length >= 1, "prompt length must be >= 1");
    std::vector<std::int32_t> tokens;
    tokens.reserve(static_cast<std::size_t>(length));
    int shared = std::min(groupTokens, length);
    std::uint64_t group = groupTokenStream(prefixGroup);
    std::uint64_t session = sessionTokenStream(sessionId);
    for (int p = 0; p < shared; ++p)
        tokens.push_back(promptTokenAt(group, p));
    // Session-stream positions continue the absolute index, so every
    // prompt of one session nests inside its longer successors.
    for (int p = shared; p < length; ++p)
        tokens.push_back(promptTokenAt(session, p));
    return tokens;
}

std::vector<ArrivalEvent>
TrafficModel::drain()
{
    std::vector<ArrivalEvent> out;
    while (auto ev = next())
        out.push_back(*ev);
    return out;
}

void
TrafficModel::setClassMix(const ClassMix &mix, std::uint64_t seed)
{
    mix_ = mix;
    shareSum_ = 0.0;
    for (const auto &spec : mix_) {
        NEUPIMS_ASSERT(spec.share > 0.0,
                       "class-mix shares must be positive");
        shareSum_ += spec.share;
    }
    classRng_ = Rng(seed ^ 0xc1a55e5ULL);
}

void
TrafficModel::stampClass(ArrivalEvent &ev)
{
    ev.clientTimeout = clientTimeout_;
    if (mix_.empty())
        return;
    // Independent RNG stream: stamping classes never perturbs the
    // gap/length draws, so a mixless run stays byte-identical.
    double u = classRng_.uniform() * shareSum_;
    const PriorityClassSpec *spec = &mix_.back();
    for (const auto &s : mix_) {
        if (u < s.share) {
            spec = &s;
            break;
        }
        u -= s.share;
    }
    ev.priorityClass = spec->priorityClass;
    // ms -> cycles at the 1 GHz domain (1 ms == 1e6 cycles).
    ev.ttftSlo = static_cast<Cycle>(spec->ttftSloMs * 1e6);
    ev.tptSlo = static_cast<Cycle>(spec->tptSloMs * 1e6);
}

ClassMix
classMixByName(const std::string &name)
{
    if (name == "uniform")
        return {PriorityClassSpec{0, 1.0, 0.0, 0.0}};
    if (name == "two-tier") {
        // Interactive quarter with tight targets over a bulk tier —
        // the canonical over-capacity differentiation scenario (the
        // 100 ms TTFT target sits between what the policies achieve
        // for the high class under 2x over-capacity load, so
        // attainment separates them).
        return {PriorityClassSpec{1, 0.25, 100.0, 20.0},
                PriorityClassSpec{0, 0.75, 1000.0, 50.0}};
    }
    if (name == "three-tier") {
        return {PriorityClassSpec{2, 0.10, 100.0, 15.0},
                PriorityClassSpec{1, 0.30, 400.0, 30.0},
                PriorityClassSpec{0, 0.60, 2000.0, 100.0}};
    }
    fatal("unknown class mix '", name,
          "' (expected uniform|two-tier|three-tier)");
}

// --- Poisson ---------------------------------------------------------------

PoissonTraffic::PoissonTraffic(const DatasetConfig &dataset,
                               double requests_per_second,
                               int num_requests, std::uint64_t seed)
    : name_("poisson"), gen_(dataset, seed), rng_(seed ^ 0xa02ff11ULL),
      cyclesPerArrival_(ratePeriodCycles(requests_per_second)),
      remaining_(num_requests)
{}

std::optional<ArrivalEvent>
PoissonTraffic::next()
{
    if (remaining_ <= 0)
        return std::nullopt;
    --remaining_;
    // Exponential gap with mean cyclesPerArrival_.
    double u = rng_.uniform();
    if (u <= 0.0)
        u = 0x1.0p-53;
    now_ += -std::log(u) * cyclesPerArrival_;
    auto s = gen_.sample();
    ArrivalEvent ev;
    ev.time = static_cast<Cycle>(now_);
    ev.inputLength = s.inputLength;
    ev.outputLength = s.outputLength;
    stampClass(ev);
    return ev;
}

// --- Bursty (Gamma) --------------------------------------------------------

BurstyTraffic::BurstyTraffic(const DatasetConfig &dataset,
                             double requests_per_second, double shape,
                             int num_requests, std::uint64_t seed)
    : name_("bursty"), gen_(dataset, seed), rng_(seed ^ 0xb5157e1ULL),
      cyclesPerArrival_(ratePeriodCycles(requests_per_second)),
      shape_(shape), remaining_(num_requests)
{
    NEUPIMS_ASSERT(shape_ > 0.0, "gamma shape must be positive");
}

/**
 * Marsaglia-Tsang squeeze for Gamma(shape >= 1, scale 1); the
 * shape < 1 boost Gamma(k) = Gamma(k+1) * U^(1/k). Deterministic:
 * only Rng draws, no std:: distributions.
 */
double
BurstyTraffic::sampleGamma()
{
    double k = shape_;
    double boost = 1.0;
    if (k < 1.0) {
        double u = rng_.uniform();
        if (u <= 0.0)
            u = 0x1.0p-53;
        boost = std::pow(u, 1.0 / k);
        k += 1.0;
    }
    const double d = k - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    while (true) {
        double x = rng_.normal();
        double v = 1.0 + c * x;
        if (v <= 0.0)
            continue;
        v = v * v * v;
        double u = rng_.uniform();
        if (u <= 0.0)
            u = 0x1.0p-53;
        if (std::log(u) < 0.5 * x * x + d - d * v + d * std::log(v))
            return boost * d * v;
    }
}

std::optional<ArrivalEvent>
BurstyTraffic::next()
{
    if (remaining_ <= 0)
        return std::nullopt;
    --remaining_;
    // Gamma(shape, scale = mean/shape) keeps the long-run rate fixed
    // while shape < 1 piles probability mass near zero (bursts).
    now_ += sampleGamma() * (cyclesPerArrival_ / shape_);
    auto s = gen_.sample();
    ArrivalEvent ev;
    ev.time = static_cast<Cycle>(now_);
    ev.inputLength = s.inputLength;
    ev.outputLength = s.outputLength;
    stampClass(ev);
    return ev;
}

// --- Replay ----------------------------------------------------------------

ReplayTraffic::ReplayTraffic(std::string name,
                             std::vector<ArrivalEvent> events)
    : name_(std::move(name)), events_(std::move(events))
{
    std::stable_sort(events_.begin(), events_.end(),
                     [](const ArrivalEvent &a, const ArrivalEvent &b) {
                         return a.time < b.time;
                     });
}

std::unique_ptr<ReplayTraffic>
ReplayTraffic::fixedRate(const DatasetConfig &dataset,
                         double requests_per_second, int num_requests,
                         std::uint64_t seed)
{
    WorkloadGenerator gen(dataset, seed);
    double period = ratePeriodCycles(requests_per_second);
    std::vector<ArrivalEvent> events;
    events.reserve(static_cast<std::size_t>(std::max(0, num_requests)));
    for (int i = 0; i < num_requests; ++i) {
        auto s = gen.sample();
        ArrivalEvent ev;
        ev.time = static_cast<Cycle>(period * static_cast<double>(i));
        ev.inputLength = s.inputLength;
        ev.outputLength = s.outputLength;
        events.push_back(ev);
    }
    return std::make_unique<ReplayTraffic>("replay", std::move(events));
}

namespace {

/** Strip surrounding spaces/tabs from a CSV field. */
std::string
trimField(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

/**
 * Parse one CSV field as a number, naming the file, line and field on
 * any failure (empty field, trailing junk, non-numeric) instead of
 * relying on a stream's aggregate fail() bit.
 */
double
parseCsvField(const std::string &raw, const std::string &file,
              int lineno, const char *field)
{
    std::string s = trimField(raw);
    if (s.empty())
        fatal(file, ":", lineno, ": empty field '", field, "'");
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size())
        fatal(file, ":", lineno, ": field '", field,
              "' is not a number: '", s, "'");
    return v;
}

} // namespace

std::unique_ptr<ReplayTraffic>
ReplayTraffic::fromCsv(std::istream &in, std::string name)
{
    std::vector<ArrivalEvent> events;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        // Trim trailing CR (Windows traces) and surrounding blanks.
        while (!line.empty() &&
               (line.back() == '\r' || line.back() == ' '))
            line.pop_back();
        std::size_t start = line.find_first_not_of(' ');
        if (start == std::string::npos || line[start] == '#')
            continue;
        if (line.compare(start, 10, "arrival_us") == 0)
            continue; // header row
        // Split the row on commas and diagnose each field by name —
        // a malformed trace reports exactly what is wrong where
        // (file:line: field), not just that some stream read failed.
        const std::string row = line.substr(start);
        std::vector<std::string> fields;
        std::size_t pos = 0;
        while (true) {
            std::size_t comma = row.find(',', pos);
            fields.push_back(row.substr(pos, comma - pos));
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
        if (fields.size() < 3 || fields.size() > 5)
            fatal(name, ":", lineno, ": expected 3 to 5 fields "
                  "(arrival_us,input_tokens,output_tokens"
                  "[,session_id[,prefix_group]]), got ",
                  fields.size(), ": '", line, "'");
        double arrival_us =
            parseCsvField(fields[0], name, lineno, "arrival_us");
        if (arrival_us < 0.0)
            fatal(name, ":", lineno,
                  ": field 'arrival_us' must be >= 0, got ",
                  arrival_us);
        double input_d =
            parseCsvField(fields[1], name, lineno, "input_tokens");
        double output_d =
            parseCsvField(fields[2], name, lineno, "output_tokens");
        int input = static_cast<int>(input_d);
        int output = static_cast<int>(output_d);
        if (input_d != static_cast<double>(input) || input < 1)
            fatal(name, ":", lineno, ": field 'input_tokens' must be "
                  "a positive integer, got '", trimField(fields[1]),
                  "'");
        if (output_d != static_cast<double>(output) || output < 1)
            fatal(name, ":", lineno, ": field 'output_tokens' must "
                  "be a positive integer, got '", trimField(fields[2]),
                  "'");
        // Optional prefix-sharing columns: integers >= -1, where -1
        // means "none" (what writeCsv emits for untagged rows in an
        // extended trace).
        std::int64_t session_id = -1;
        std::int64_t prefix_group = -1;
        if (fields.size() >= 4) {
            double v =
                parseCsvField(fields[3], name, lineno, "session_id");
            session_id = static_cast<std::int64_t>(v);
            if (v != static_cast<double>(session_id) || session_id < -1)
                fatal(name, ":", lineno, ": field 'session_id' must "
                      "be an integer >= -1, got '",
                      trimField(fields[3]), "'");
        }
        if (fields.size() >= 5) {
            double v =
                parseCsvField(fields[4], name, lineno, "prefix_group");
            prefix_group = static_cast<std::int64_t>(v);
            if (v != static_cast<double>(prefix_group) ||
                prefix_group < -1)
                fatal(name, ":", lineno, ": field 'prefix_group' must "
                      "be an integer >= -1, got '",
                      trimField(fields[4]), "'");
        }
        // llround, not a truncating cast: 1.001 us is 1000.999...
        // after the multiply and must parse as cycle 1001 for the
        // writeCsv round trip to be lossless.
        ArrivalEvent ev;
        ev.time = static_cast<Cycle>(std::llround(arrival_us * 1e3));
        ev.inputLength = input;
        ev.outputLength = output;
        ev.sessionId = session_id;
        ev.prefixGroup = prefix_group;
        // Synthesize prompt content from the tags: a grouped row
        // shares its whole prefix with its cohort, a session-only row
        // shares nested prefixes with its conversation's other turns.
        if (prefix_group >= 0)
            ev.promptTokens =
                synthesizePrompt(session_id, prefix_group, input, input);
        else if (session_id >= 0)
            ev.promptTokens =
                synthesizePrompt(session_id, -1, 0, input);
        events.push_back(std::move(ev));
    }
    return std::make_unique<ReplayTraffic>(std::move(name),
                                           std::move(events));
}

std::unique_ptr<ReplayTraffic>
ReplayTraffic::fromCsvFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file ", path);
    return fromCsv(in, path);
}

void
ReplayTraffic::writeCsv(std::ostream &out) const
{
    // Emit the prefix-sharing columns only when some event carries a
    // tag — plain traces keep the original 3-column format so every
    // pre-existing fixture round-trips byte-identically.
    bool extended = false;
    for (const auto &ev : events_)
        extended |= ev.sessionId >= 0 || ev.prefixGroup >= 0;
    out << "arrival_us,input_tokens,output_tokens";
    if (extended)
        out << ",session_id,prefix_group";
    out << "\n";
    char row[128];
    for (const auto &ev : events_) {
        // Three decimals of a microsecond = exactly one cycle (ns),
        // so a writeCsv -> fromCsv round trip is lossless.
        if (extended)
            std::snprintf(row, sizeof(row), "%.3f,%d,%d,%lld,%lld\n",
                          static_cast<double>(ev.time) * 1e-3,
                          ev.inputLength, ev.outputLength,
                          static_cast<long long>(ev.sessionId),
                          static_cast<long long>(ev.prefixGroup));
        else
            std::snprintf(row, sizeof(row), "%.3f,%d,%d\n",
                          static_cast<double>(ev.time) * 1e-3,
                          ev.inputLength, ev.outputLength);
        out << row;
    }
}

std::optional<ArrivalEvent>
ReplayTraffic::next()
{
    if (cursor_ >= events_.size())
        return std::nullopt;
    ArrivalEvent ev = events_[cursor_++];
    stampClass(ev);
    return ev;
}

// --- Session (conversational) ----------------------------------------------

namespace {

/** Conversation turns per session, at most. */
constexpr int kMaxSessionTurns = 8;
static_assert(kMaxSessionTurns >= 1, "max turns must be >= 1");

/**
 * Open-loop proxy for the previous turn's service time: the client
 * sends turn t only after reading turn t-1's response, so the
 * inter-turn gap adds prevOutput * kServiceMsPerToken on top of the
 * think time. Without it, at load a follow-up turn arrives while its
 * predecessor is still queued — before the predecessor published any
 * prefix pages — and the session's nested-prefix hits never
 * materialize. ~12 ms/token tracks the decode TBT the serving sweeps
 * measure.
 */
constexpr double kServiceMsPerToken = 12.0;
static_assert(kServiceMsPerToken >= 0.0, "service proxy must be >= 0");

} // namespace

std::unique_ptr<TrafficModel>
makeSessionTraffic(const DatasetConfig &dataset,
                   double requests_per_second, int num_requests,
                   std::uint64_t seed, const SessionTrafficConfig &cfg)
{
    NEUPIMS_ASSERT(cfg.hotFraction >= 0.0 && cfg.hotFraction <= 1.0,
                   "hot fraction must be in [0, 1]");
    NEUPIMS_ASSERT(cfg.systemPromptTokens >= 0,
                   "system prompt length must be >= 0");
    NEUPIMS_ASSERT(cfg.meanTurns >= 1.0,
                   "mean turns must be >= 1");
    NEUPIMS_ASSERT(cfg.thinkMs >= 0.0, "think time must be >= 0");
    WorkloadGenerator gen(dataset, seed);
    Rng rng(seed ^ 0x5e5510f7ULL);
    // Sessions (not requests) arrive Poisson; the per-request
    // long-run rate matches the other models at the same nominal
    // requests_per_second because each session carries meanTurns
    // requests on average.
    const double cyclesPerSession =
        ratePeriodCycles(requests_per_second) * cfg.meanTurns;
    // 1 + Geometric(p) with continue probability 1 - 1/meanTurns has
    // mean meanTurns before the kMaxSessionTurns cap.
    const double continueProb = 1.0 - 1.0 / cfg.meanTurns;
    const double thinkCycles = cfg.thinkMs * 1e6; // ms at 1 GHz
    std::vector<ArrivalEvent> events;
    double sessionClock = 0.0;
    std::int64_t session_id = 0;
    while (static_cast<int>(events.size()) < num_requests) {
        double u = rng.uniform();
        if (u <= 0.0)
            u = 0x1.0p-53;
        sessionClock += -std::log(u) * cyclesPerSession;
        const bool hot = rng.uniform() < cfg.hotFraction;
        const std::int64_t group = hot ? 0 : -1;
        const int shared = hot ? cfg.systemPromptTokens : 0;
        double t = sessionClock;
        int promptLen = 0;
        int prevOutput = 0;
        for (int turn = 0; turn < kMaxSessionTurns; ++turn) {
            auto s = gen.sample();
            // Turn t's prompt is turn t-1's prompt plus its response
            // plus the fresh user message; the opening turn prepends
            // the (possibly shared) system prompt.
            promptLen = turn == 0 ? shared + s.inputLength
                                  : promptLen + prevOutput +
                                        s.inputLength;
            promptLen = std::min(promptLen, dataset.maxLength);
            ArrivalEvent ev;
            ev.time = static_cast<Cycle>(t);
            ev.inputLength = promptLen;
            ev.outputLength = s.outputLength;
            ev.sessionId = session_id;
            ev.prefixGroup = group;
            ev.promptTokens =
                synthesizePrompt(session_id, group, shared, promptLen);
            events.push_back(std::move(ev));
            prevOutput = s.outputLength;
            if (turn + 1 >= kMaxSessionTurns ||
                rng.uniform() >= continueProb)
                break;
            // The next turn follows the previous turn's response (the
            // kServiceMsPerToken open-loop proxy for its decode time)
            // plus the client's think time.
            double g = rng.uniform();
            if (g <= 0.0)
                g = 0x1.0p-53;
            t += static_cast<double>(prevOutput) * kServiceMsPerToken * 1e6 -
                 std::log(g) * thinkCycles;
        }
        ++session_id;
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const ArrivalEvent &a, const ArrivalEvent &b) {
                         return a.time < b.time;
                     });
    events.resize(static_cast<std::size_t>(std::max(0, num_requests)));
    return std::make_unique<ReplayTraffic>("session",
                                           std::move(events));
}

// --- Factory ---------------------------------------------------------------

std::unique_ptr<TrafficModel>
makeTraffic(const std::string &kind, const DatasetConfig &dataset,
            double requests_per_second, int num_requests,
            std::uint64_t seed)
{
    if (kind == "poisson") {
        return std::make_unique<PoissonTraffic>(
            dataset, requests_per_second, num_requests, seed);
    }
    if (kind == "bursty") {
        // Shape 0.25: four-fold burstier than Poisson (CV = 2).
        return std::make_unique<BurstyTraffic>(
            dataset, requests_per_second, 0.25, num_requests, seed);
    }
    if (kind == "replay") {
        return ReplayTraffic::fixedRate(dataset, requests_per_second,
                                        num_requests, seed);
    }
    if (kind == "session") {
        return makeSessionTraffic(dataset, requests_per_second,
                                  num_requests, seed);
    }
    fatal("unknown traffic model '", kind,
          "' (expected poisson|bursty|replay|session)");
}

const std::vector<std::string> &
standardTrafficKinds()
{
    static const std::vector<std::string> kinds = {"poisson", "bursty",
                                                   "replay"};
    return kinds;
}

} // namespace neupims::runtime
