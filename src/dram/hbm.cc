#include "dram/hbm.h"

#include <algorithm>

namespace neupims::dram {

HbmStack::HbmStack(EventQueue &eq, const MemConfig &cfg)
    : HbmStack(eq, cfg, SymmetryGroups::identity(cfg.org.channels))
{}

HbmStack::HbmStack(EventQueue &eq, const MemConfig &cfg,
                   SymmetryGroups groups)
    : eq_(eq), cfg_(cfg), groups_(std::move(groups))
{
    NEUPIMS_ASSERT(static_cast<int>(groups_.representative.size()) ==
                   cfg_.org.channels);
    NEUPIMS_ASSERT(eq_.batcher() == nullptr, "one HbmStack per queue");
    eq_.setBatcher(this);
    ctrls_.resize(cfg_.org.channels);
    for (int c = 0; c < cfg_.org.channels; ++c) {
        ChannelId rep = groups_.representative[c];
        NEUPIMS_ASSERT(rep >= 0 && rep < cfg_.org.channels &&
                           groups_.representative[rep] == rep,
                       "malformed symmetry groups at channel ", c);
        if (rep == c) {
            ctrls_[c] = std::make_unique<MemoryController>(
                eq_, cfg_.timing, cfg_.org, cfg_.ctrl);
            ctrls_[c]->epoch_ = &epoch_;
        }
    }
}

HbmStack::~HbmStack()
{
    eq_.setBatcher(nullptr);
}

bool
HbmStack::runBatch()
{
    // A bound at or before now stays there until its controller runs.
    if (epoch_.blocker)
        return false;
    const Cycle t = eq_.now();
    // No MEM completion collected in [t, t + span) is due before
    // t + span, and none at all before its controller's soft bound; no
    // completion is due before a hard bound (DESIGN.md §3.4).
    const Cycle span = std::min(cfg_.ctrl.horizon, cfg_.timing.tRFC);
    Cycle hard = kCycleMax;
    Cycle soft = kCycleMax;
    for (const auto &c : ctrls_) {
        if (!c)
            continue;
        c->completionBounds(t, hard, soft);
        if (hard <= t) {
            epoch_.blocker = c.get();
            return false;
        }
    }
    const Cycle end = eq_.taggedEnd(std::min(hard, std::max(t + span, soft)));
    ++epochs_;
    for (auto &c : ctrls_) {
        if (c)
            c->advanceEpoch(end);
    }
    // Replay in the queue's (cycle, seq) order, the way its buckets
    // would have run (DESIGN.md §3.4). A cycle's bucket holds the
    // events taken from the queue, in order, then the wake-ups that
    // follow a gap in their chain, behind the wake-up that scheduled
    // each: one heap ordered by cycle and arrival. Wake-ups that
    // continue a run from the cycle before come last, in the order
    // they fired there. Completions and boundary resumes land at or
    // after `end`, so they go straight into the queue.
    auto later = [](const Pending &a, const Pending &b) {
        return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    };
    std::uint64_t seq = 0;
    auto queue = [&](Cycle at, MemoryController *c) {
        pending_.push_back({at, seq++, c});
        std::push_heap(pending_.begin(), pending_.end(), later);
    };
    eq_.takeTagged(end, [&](Cycle w, void *tag) {
        queue(w, static_cast<MemoryController *>(tag));
    });
    epoch_.replaying = true;
    running_.clear();
    // Before its stop (replayStop()) a listed run would only re-queue
    // itself at every cycle, in list order: it fires at its stop, or at
    // a stale event of its own once its lagging cursor catches up.
    Cycle stop = end;
    while (true) {
        const Cycle w =
            std::min(pending_.empty() ? end : pending_.front().at, stop);
        if (w >= end)
            break;
        fired_.swap(running_);
        running_.clear();
        auto fire = [&](MemoryController *c) {
            const Cycle next = c->fireEpochWake(w);
            if (next == w + 1) {
                c->listedStop_ = c->replayStop();
                running_.push_back(c);
            } else if (next != kCycleMax)
                queue(next, c);
        };
        while (!pending_.empty() && pending_.front().at == w) {
            std::pop_heap(pending_.begin(), pending_.end(), later);
            MemoryController *c = pending_.back().ctrl;
            pending_.pop_back();
            c->replayAt_ = std::max(c->replayAt_, w);
            fire(c);
        }
        for (MemoryController *c : fired_) {
            if (c->replayAt_ > w) // a stale event fired it
                continue;
            if (c->listedStop_ > w) {
                running_.push_back(c);
                continue;
            }
            c->replayAt_ = w;
            fire(c);
        }
        stop = end;
        for (const MemoryController *c : running_)
            stop = std::min(stop, c->listedStop_);
    }
    epoch_.replaying = false;
    for (auto &c : ctrls_)
        NEUPIMS_ASSERT(!c || c->chain_.empty(), "epoch chain not replayed");
    NEUPIMS_ASSERT(eq_.empty() || eq_.nextEventCycle() >= end,
                   "a replayed completion scheduled inside its epoch");
    return true;
}

bool
HbmStack::idle() const
{
    for (const auto &c : ctrls_) {
        if (c && !c->idle())
            return false;
    }
    return true;
}

// The aggregate walks every logical channel through controller(), so a
// folded member contributes its representative's (bit-identical) value
// in the same summation order as the unfolded simulation — keeping
// floating-point accumulations exactly equal to the unfolded run's.

Bytes
HbmStack::totalDataBusBytes() const
{
    Bytes total = 0;
    for (ChannelId ch = 0; ch < numChannels(); ++ch)
        total += controller(ch).channel().dataBusBytes();
    return total;
}

CommandCounts
HbmStack::totalCommandCounts() const
{
    CommandCounts total;
    for (ChannelId ch = 0; ch < numChannels(); ++ch) {
        const auto &counts = controller(ch).channel().commandCounts();
        for (int i = 0; i < kNumCommandTypes; ++i)
            total.counts[i] += counts.counts[i];
    }
    return total;
}

Cycle
HbmStack::totalPimBankBusyCycles() const
{
    Cycle total = 0;
    for (ChannelId ch = 0; ch < numChannels(); ++ch)
        total += controller(ch).pimBankBusyCycles();
    return total;
}

Cycle
HbmStack::totalMemBankBusyCycles() const
{
    // Only RD and WR move MEM data, one tBL burst each (DESIGN.md §11).
    const CommandCounts c = totalCommandCounts();
    return cfg_.timing.tBL *
           (c.count(CommandType::Rd) + c.count(CommandType::Wr));
}

MemSchedStats
HbmStack::totalMemSchedStats() const
{
    MemSchedStats total;
    for (ChannelId ch = 0; ch < numChannels(); ++ch)
        total += controller(ch).memSchedStats();
    return total;
}

double
HbmStack::dataBusUtilization(Cycle window_start, Cycle window_end) const
{
    // One walk per simulated channel; the sum still runs over every
    // channel in order, as the unfolded one does.
    std::vector<double> util(numChannels());
    for (ChannelId ch = 0; ch < numChannels(); ++ch) {
        if (ctrls_[ch])
            util[ch] = ctrls_[ch]->channel().dataBusUtilization(
                window_start, window_end);
    }
    double sum = 0.0;
    for (ChannelId ch = 0; ch < numChannels(); ++ch)
        sum += util[groups_.representative[ch]];
    return sum / static_cast<double>(numChannels());
}

ChannelActivity
HbmStack::channelActivity(ChannelId ch, Cycle window) const
{
    const auto &ctrl = controller(ch);
    ChannelActivity a;
    a.windowCycles = window;
    a.counts = ctrl.channel().commandCounts();
    a.pimBankBusyCycles = ctrl.pimBankBusyCycles();
    a.dualRowBuffers = ctrl.config().dualRowBuffers;
    return a;
}

} // namespace neupims::dram
