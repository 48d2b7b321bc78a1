#include "npu/dma.h"

#include <algorithm>

#include "common/log.h"

namespace neupims::npu {

DmaEngine::DmaEngine(EventQueue &eq, dram::HbmStack &hbm)
    : eq_(eq), hbm_(hbm), nextBank_(hbm.numChannels(), 0),
      nextRow_(hbm.numChannels(), 0)
{}

void
DmaEngine::launch(const std::vector<Bytes> &bytes_per_channel, bool write,
                  int bursts_per_row, Callback on_done)
{
    const auto &org = hbm_.config().org;
    NEUPIMS_ASSERT(bursts_per_row >= 1 &&
                   bursts_per_row <= org.burstsPerRow());
    auto tracker = std::make_shared<Tracker>();
    tracker->onDone = std::move(on_done);
    for (ChannelId ch = 0;
         ch < static_cast<ChannelId>(bytes_per_channel.size()); ++ch) {
        const Bytes bytes = bytes_per_channel[ch];
        if (bytes == 0)
            continue;
        issuedBytes_ += bytes;
        if (!hbm_.isRepresentative(ch)) {
            // The fold is only exact when the member mirrors its
            // representative's traffic byte for byte; only the traffic
            // accounting is replicated.
            NEUPIMS_ASSERT(bytes == bytes_per_channel[hbm_.representative(ch)],
                           "asymmetric per-channel stream on folded "
                           "channel ", ch);
            continue;
        }
        // One descriptor per channel: whole rows, then a tail row of the
        // remaining bursts, the last one rounded up (DESIGN.md §3.5).
        const int bursts =
            static_cast<int>((bytes + org.burstBytes - 1) / org.burstBytes);
        dram::MemJob job;
        job.bank = nextBank_[ch];
        job.row = nextRow_[ch];
        job.rows = (bursts + bursts_per_row - 1) / bursts_per_row;
        job.bursts = bursts_per_row;
        job.tailBursts = bursts - (job.rows - 1) * bursts_per_row;
        job.write = write;
        job.onComplete = [tracker, this](Cycle c) {
            tracker->last = std::max(tracker->last, c);
            if (--tracker->outstanding == 0 && tracker->onDone) {
                // Controller callbacks are synchronous (possibly ahead
                // of simulated time); fire the stream-completion
                // callback at the authoritative cycle.
                eq_.schedule(std::max(tracker->last, eq_.now()),
                             [tracker] { tracker->onDone(tracker->last); });
            }
        };
        ++tracker->outstanding;
        // Successive rows rotate banks so they pipeline; the row cursor
        // advances after each full sweep of the banks.
        const int pos = nextBank_[ch] + job.rows;
        nextBank_[ch] = pos % org.banksPerChannel;
        nextRow_[ch] += pos / org.banksPerChannel;
        hbm_.controller(ch).enqueueMem(std::move(job));
    }
    if (tracker->outstanding == 0 && tracker->onDone) {
        // Degenerate zero-byte stream: complete immediately.
        eq_.schedule(eq_.now(),
                     [cb = tracker->onDone, t = eq_.now()] { cb(t); });
    }
}

void
DmaEngine::streamAllChannels(Bytes total, bool write, int bursts_per_row,
                             Callback on_done)
{
    int n = hbm_.numChannels();
    // Whole bursts per channel; the sub-burst tail rides channel 0 so
    // only one channel rounds up.
    Bytes burst = hbm_.config().org.burstBytes;
    Bytes per_channel = (total / n) / burst * burst;
    Bytes remainder = total - per_channel * static_cast<Bytes>(n);
    // A tail would make channel 0's job stream differ from its class
    // siblings'; the executor keeps channel 0 a singleton class.
    NEUPIMS_ASSERT(remainder == 0 || hbm_.classSize(0) == 1,
                   "all-channel tail requires channel 0 unfolded");
    std::vector<Bytes> bytes(static_cast<std::size_t>(n), per_channel);
    bytes[0] += remainder;
    launch(bytes, write, bursts_per_row, std::move(on_done));
}

void
DmaEngine::streamPerChannel(const std::vector<Bytes> &bytes_per_channel,
                            bool write, int bursts_per_row,
                            Callback on_done)
{
    NEUPIMS_ASSERT(static_cast<int>(bytes_per_channel.size()) <=
                   hbm_.numChannels());
    launch(bytes_per_channel, write, bursts_per_row, std::move(on_done));
}

} // namespace neupims::npu
