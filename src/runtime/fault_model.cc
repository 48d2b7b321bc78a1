#include "runtime/fault_model.h"

#include <algorithm>
#include <cstdlib>

#include "common/log.h"
#include "common/rng.h"

namespace neupims::runtime {

namespace {

FaultKind
faultKindByName(const std::string &name, const std::string &spec)
{
    if (name == "fail")
        return FaultKind::ChannelFail;
    if (name == "brownout")
        return FaultKind::Brownout;
    if (name == "straggler")
        return FaultKind::Straggler;
    fatal("malformed fault spec '", spec, "': unknown kind '", name,
          "' (expected fail|brownout|straggler)");
}

double
parseFaultNumber(const std::string &field, const std::string &spec,
                 const char *what)
{
    char *end = nullptr;
    double v = std::strtod(field.c_str(), &end);
    if (field.empty() || end != field.c_str() + field.size())
        fatal("malformed fault spec '", spec, "': bad ", what, " '",
              field, "'");
    return v;
}

std::vector<std::string>
splitOn(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (true) {
        std::size_t next = s.find(sep, pos);
        out.push_back(s.substr(pos, next - pos));
        if (next == std::string::npos)
            break;
        pos = next + 1;
    }
    return out;
}

} // namespace

FaultModelConfig
parseFaultSpecs(const std::string &spec, std::uint64_t seed)
{
    FaultModelConfig cfg;
    cfg.seed = seed;
    if (spec.empty())
        return cfg;
    for (const std::string &one : splitOn(spec, ',')) {
        if (one.empty())
            fatal("malformed fault spec '", spec,
                  "': empty event (stray comma?)");
        auto fields = splitOn(one, ':');
        if (fields.size() < 2 || fields.size() > 5)
            fatal("malformed fault spec '", one,
                  "': expected kind:startMs[:chan[:durMs[:factor]]]");
        FaultEvent ev;
        ev.kind = faultKindByName(fields[0], one);
        double start_ms =
            parseFaultNumber(fields[1], one, "start time (ms)");
        if (start_ms < 0.0)
            fatal("malformed fault spec '", one,
                  "': start time must be >= 0");
        // ms -> cycles at the 1 GHz domain (1 ms == 1e6 cycles).
        ev.start = static_cast<Cycle>(start_ms * 1e6);
        if (fields.size() >= 3) {
            double ch = parseFaultNumber(fields[2], one, "channel");
            ev.channel = static_cast<ChannelId>(ch);
            if (ev.channel < -1)
                fatal("malformed fault spec '", one,
                      "': channel must be >= 0 (or -1 for random)");
        }
        if (fields.size() >= 4) {
            double dur_ms =
                parseFaultNumber(fields[3], one, "duration (ms)");
            if (dur_ms <= 0.0)
                fatal("malformed fault spec '", one,
                      "': duration must be positive");
            ev.duration = static_cast<Cycle>(dur_ms * 1e6);
        }
        if (fields.size() >= 5) {
            ev.factor = parseFaultNumber(fields[4], one, "factor");
            if (ev.factor <= 1.0)
                fatal("malformed fault spec '", one,
                      "': straggler factor must exceed 1");
        }
        cfg.events.push_back(ev);
    }
    return cfg;
}

FaultModel::FaultModel(const FaultModelConfig &cfg, int channels)
    : channels_(channels), events_(cfg.events)
{
    NEUPIMS_ASSERT(channels_ >= 1);
    online_.assign(static_cast<std::size_t>(channels_), 1);
    failed_.assign(static_cast<std::size_t>(channels_), 0);
    if (events_.empty())
        return;
    // Resolve random channel picks once, in spec order, on the
    // dedicated fault stream — placement is a pure function of
    // (seed, spec), independent of traffic and retry draws.
    Rng rng(cfg.seed ^ 0xfa1775ULL);
    for (FaultEvent &ev : events_) {
        if (ev.channel == kInvalidId)
            ev.channel = static_cast<ChannelId>(rng.uniformInt(
                0, static_cast<std::uint64_t>(channels_ - 1)));
        NEUPIMS_ASSERT(ev.channel >= 0 && ev.channel < channels_,
                       "fault channel ", ev.channel,
                       " out of range (", channels_, " channels)");
        NEUPIMS_ASSERT(ev.kind == FaultKind::ChannelFail ||
                           ev.duration >= 1,
                       "windowed faults need a positive duration");
        if (ev.kind == FaultKind::Straggler) {
            NEUPIMS_ASSERT(ev.factor > 1.0,
                           "straggler factor must exceed 1");
            stragglers_.push_back(Window{ev.channel, ev.start,
                                         ev.start + ev.duration,
                                         ev.factor});
        }
    }
    std::stable_sort(events_.begin(), events_.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.start < b.start;
                     });
}

FaultModel::Transitions
FaultModel::advanceTo(Cycle now)
{
    Transitions tr;
    if (events_.empty())
        return tr;
    NEUPIMS_ASSERT(now >= pos_, "fault clock moved backwards");
    pos_ = now;
    // Ends before starts: a channel whose brownout window elapsed is
    // restored before any event firing at this same boundary targets
    // it again.
    for (std::size_t i = 0; i < brownoutEnds_.size();) {
        if (brownoutEnds_[i].first <= now) {
            ChannelId ch = brownoutEnds_[i].second;
            if (!failed_[ch]) {
                online_[ch] = 1;
                tr.restored.push_back(ch);
            }
            brownoutEnds_.erase(brownoutEnds_.begin() +
                                static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
    while (cursor_ < events_.size() &&
           events_[cursor_].start <= now) {
        const FaultEvent &ev = events_[cursor_++];
        ChannelId ch = ev.channel;
        switch (ev.kind) {
        case FaultKind::ChannelFail:
            if (!failed_[ch]) {
                failed_[ch] = 1;
                online_[ch] = 0;
                tr.failed.push_back(ch);
            }
            break;
        case FaultKind::Brownout:
            if (!failed_[ch] && online_[ch]) {
                online_[ch] = 0;
                brownoutEnds_.emplace_back(ev.start + ev.duration,
                                           ch);
                tr.brownedOut.push_back(ch);
            }
            break;
        case FaultKind::Straggler:
            break; // priced via slowdown(), no state transition
        }
    }
    return tr;
}

bool
FaultModel::online(ChannelId channel) const
{
    if (channel < 0 || channel >= channels_)
        return true; // unbound requests have no channel to lose
    return events_.empty() || online_[channel] != 0;
}

bool
FaultModel::failed(ChannelId channel) const
{
    if (channel < 0 || channel >= channels_ || events_.empty())
        return false;
    return failed_[channel] != 0;
}

int
FaultModel::offlineCount() const
{
    if (events_.empty())
        return 0;
    int n = 0;
    for (std::uint8_t on : online_)
        n += on ? 0 : 1;
    return n;
}

double
FaultModel::slowdown(ChannelId channel, Cycle now) const
{
    double factor = 1.0;
    for (const Window &w : stragglers_) {
        if (w.channel == channel && w.start <= now && now < w.end)
            factor = std::max(factor, w.factor);
    }
    return factor;
}

bool
FaultModel::anySlowdown(Cycle now) const
{
    for (const Window &w : stragglers_) {
        if (w.start <= now && now < w.end)
            return true;
    }
    return false;
}

Cycle
FaultModel::nextTransitionCycle() const
{
    Cycle next = kCycleMax;
    if (cursor_ < events_.size())
        next = std::min(next, events_[cursor_].start);
    for (const auto &end : brownoutEnds_)
        next = std::min(next, end.first);
    return next;
}

} // namespace neupims::runtime
