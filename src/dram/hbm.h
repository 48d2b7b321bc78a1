/**
 * @file
 * The full HBM-PIM memory of one NeuPIMs device: 32 channels, each
 * with its own memory controller (Table 2), plus aggregate statistics
 * used by the metrics and power layers.
 *
 * The stack is its queue's batcher: it runs the stretches of
 * controller wake-ups between arrivals as epochs, MEM streams and PIM
 * kernels alike, each ending before the first completion it could
 * collect too early (DESIGN.md §3.4).
 */

#ifndef NEUPIMS_DRAM_HBM_H_
#define NEUPIMS_DRAM_HBM_H_

#include <memory>
#include <vector>

#include "common/event_queue.h"
#include "common/types.h"
#include "dram/controller.h"
#include "dram/power_model.h"

namespace neupims::dram {

struct MemConfig
{
    TimingParams timing;
    Organization org;
    ControllerConfig ctrl;
};

/**
 * Channel equivalence classes of the channel fold (DESIGN.md §5):
 * channels that will receive bit-identical job streams share one
 * simulated controller (the class representative). The identity
 * grouping (every channel its own representative) is the unfolded
 * simulation.
 */
struct SymmetryGroups
{
    /** Per-channel representative; representative(ch) == ch for the
     * channel that is actually simulated. */
    std::vector<ChannelId> representative;
    /** Per-channel size of the class the channel belongs to. */
    std::vector<int> classSize;
    int numClasses = 0;

    static SymmetryGroups
    identity(int channels)
    {
        SymmetryGroups g;
        g.representative.resize(channels);
        g.classSize.assign(channels, 1);
        for (ChannelId ch = 0; ch < channels; ++ch)
            g.representative[ch] = ch;
        g.numClasses = channels;
        return g;
    }
};

class HbmStack : private EventQueue::Batcher
{
  public:
    /** @p eq must outlive the stack; a queue drives one stack. */
    HbmStack(EventQueue &eq, const MemConfig &cfg);
    HbmStack(EventQueue &eq, const MemConfig &cfg, SymmetryGroups groups);
    ~HbmStack();
    HbmStack(const HbmStack &) = delete;
    HbmStack &operator=(const HbmStack &) = delete;

    int numChannels() const { return cfg_.org.channels; }

    /**
     * The controller simulating @p ch: its own when @p ch is a class
     * representative, the representative's otherwise (the fold means
     * a member channel's behavior is the representative's, replayed).
     */
    MemoryController &
    controller(ChannelId ch)
    {
        return *ctrls_.at(groups_.representative.at(ch));
    }
    const MemoryController &
    controller(ChannelId ch) const
    {
        return *ctrls_.at(groups_.representative.at(ch));
    }

    /** Whether @p ch is simulated (vs folded onto a representative). */
    bool
    isRepresentative(ChannelId ch) const
    {
        return groups_.representative.at(ch) == ch;
    }

    /** The representative channel of @p ch's equivalence class. */
    ChannelId
    representative(ChannelId ch) const
    {
        return groups_.representative.at(ch);
    }

    int classSize(ChannelId ch) const { return groups_.classSize.at(ch); }

    const MemConfig &config() const { return cfg_; }

    /** True when every channel is idle. */
    bool idle() const;

    // --- aggregate statistics -------------------------------------------

    /** Total bytes moved on all channel data buses. */
    Bytes totalDataBusBytes() const;

    /** Sum of per-channel command counts. */
    CommandCounts totalCommandCounts() const;

    /** Sum over channels and banks of PIM compute cycles. */
    Cycle totalPimBankBusyCycles() const;

    /** Sum over channels and banks of MEM data-service cycles (64 B
     * beats served). */
    Cycle totalMemBankBusyCycles() const;

    /** Sum of per-channel scheduling statistics (row hits, misses and
     * conflicts, per-class command counts, mode switches, PIM
     * stall/waste integrals); folded channels contribute their
     * representative's bit-identical values. */
    MemSchedStats totalMemSchedStats() const;

    /** Mean data-bus utilization across channels over a window. */
    double dataBusUtilization(Cycle window_start, Cycle window_end) const;

    /**
     * Sustainable concurrent PIM banks across the device: the power
     * envelope lets only pimParallelBanks banks per channel run their
     * datapaths at once (TimingParams), so PIM utilization is busy
     * bank-cycles against this capacity.
     */
    double
    pimCapacityBanks() const
    {
        return static_cast<double>(cfg_.org.channels) *
               static_cast<double>(cfg_.timing.pimParallelBanks);
    }

    /** Epochs run so far (DESIGN.md §3.4). */
    std::uint64_t epochs() const { return epochs_; }

    /** Build the power-model activity summary for channel @p ch. */
    ChannelActivity channelActivity(ChannelId ch, Cycle window) const;

  private:
    /** Run an epoch from the queue's current cycle to the first
     * untagged event or completion bound; decline when a controller's
     * bound lies at or before now, as a finished kernel's can while it
     * waits for its PIM_PRECHARGE (DESIGN.md §3.4). */
    bool runBatch() override;

    EventQueue &eq_;
    MemConfig cfg_;
    SymmetryGroups groups_;
    /** Indexed by channel; null for folded (non-representative) slots. */
    std::vector<std::unique_ptr<MemoryController>> ctrls_;

    EpochState epoch_;
    std::uint64_t epochs_ = 0;
    /** A queued or gap-successor wake-up of the replay. */
    struct Pending
    {
        Cycle at;
        std::uint64_t seq; ///< arrival order within the epoch
        MemoryController *ctrl;
    };
    /** Epoch replay storage, kept across epochs: the pending wake-ups
     * (a heap), the runs that continue at the next cycle (running_) and
     * those that continue into the cycle being replayed (fired_). */
    std::vector<Pending> pending_;
    std::vector<MemoryController *> running_;
    std::vector<MemoryController *> fired_;
};

} // namespace neupims::dram

#endif // NEUPIMS_DRAM_HBM_H_
