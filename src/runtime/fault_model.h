/**
 * @file
 * Deterministic fault injection for the serving engine.
 *
 * A FaultModel schedules fault events on the simulated clock and
 * answers, at every iteration boundary, which channels changed state
 * since the last boundary. Three fault kinds (DESIGN.md §10):
 *
 *  - ChannelFail: a channel dies permanently. Its KV pages are lost
 *    (residents are force-preempted in recompute mode by the
 *    scheduler) and its capacity leaves the packer for good.
 *  - Brownout: a channel goes offline for a window, then comes back.
 *    Residents keep their pages but contribute no work while dark.
 *  - Straggler: a channel's iteration contribution is inflated by a
 *    factor for a window; both iteration models price the inflation
 *    through IterationSchedule::stragglerInflation().
 *
 * Determinism: random channel picks (spec channel == kInvalidId) draw
 * from a dedicated xoshiro stream (`seed ^ 0xfa1775ULL`) resolved
 * once at construction, so fault placement never perturbs — and is
 * never perturbed by — the traffic or retry streams. A FaultModel
 * with no events is inert: it owns no state transitions, draws no
 * random numbers, and leaves every run byte-identical (locked by the
 * golden identity tests).
 */

#ifndef NEUPIMS_RUNTIME_FAULT_MODEL_H_
#define NEUPIMS_RUNTIME_FAULT_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace neupims::runtime {

enum class FaultKind : std::uint8_t
{
    ChannelFail, ///< permanent: pages lost, capacity leaves the packer
    Brownout,    ///< offline for a window, then restored intact
    Straggler,   ///< iteration contribution inflated for a window
};

/** One scheduled fault event. */
struct FaultEvent
{
    FaultKind kind = FaultKind::ChannelFail;
    Cycle start = 0;               ///< simulated cycle it fires
    /** Target channel; kInvalidId = pick one from the seeded fault
     * stream at construction. */
    ChannelId channel = kInvalidId;
    Cycle duration = 50'000'000;   ///< window (brownout/straggler)
    double factor = 2.0;           ///< straggler inflation (> 1)
};

struct FaultModelConfig
{
    std::vector<FaultEvent> events;
    std::uint64_t seed = 42; ///< fault-stream seed (channel picks)

    bool enabled() const { return !events.empty(); }
};

/**
 * Parse a `--fault` spec list into a config:
 * `kind:startMs[:chan[:durMs[:factor]]]`, comma-separated; kind is
 * fail|brownout|straggler, chan -1 (or omitted) draws a seeded-random
 * channel. fatal() on malformed specs.
 */
FaultModelConfig parseFaultSpecs(const std::string &spec,
                                 std::uint64_t seed);

class FaultModel
{
  public:
    FaultModel() = default;
    FaultModel(const FaultModelConfig &cfg, int channels);

    bool enabled() const { return !events_.empty(); }
    int channels() const { return channels_; }

    /** Channel state changes crossing an advanceTo() boundary. */
    struct Transitions
    {
        std::vector<ChannelId> failed;     ///< permanent failures
        std::vector<ChannelId> brownedOut; ///< went dark (transient)
        std::vector<ChannelId> restored;   ///< brownout window ended

        bool
        any() const
        {
            return !failed.empty() || !brownedOut.empty() ||
                   !restored.empty();
        }
    };

    /**
     * Advance the fault clock to @p now and return every channel
     * state change since the previous call. Brownout ends are applied
     * before new starts at the same boundary, so a channel restored
     * and re-failed in one window reports both. Monotone: @p now must
     * not precede the previous call's.
     */
    Transitions advanceTo(Cycle now);

    /** Whether @p channel is currently online (not failed, not in a
     * brownout window). Requests with channel == kInvalidId count as
     * online (they hold no channel to lose). */
    bool online(ChannelId channel) const;

    /** Whether @p channel failed permanently. */
    bool failed(ChannelId channel) const;

    int offlineCount() const;

    /** Straggler inflation factor for @p channel at @p now (1.0 when
     * no window covers it; windows never deflate). */
    double slowdown(ChannelId channel, Cycle now) const;

    /** Whether any straggler window covers @p now. */
    bool anySlowdown(Cycle now) const;

    /**
     * Earliest pending state change after the current fault clock:
     * the next unfired event start or active brownout end, kCycleMax
     * when drained. The engine fast-forwards an otherwise stuck
     * boundary (e.g. every resident browned out) to this cycle.
     */
    Cycle nextTransitionCycle() const;

  private:
    /** A resolved straggler window. */
    struct Window
    {
        ChannelId channel = kInvalidId;
        Cycle start = 0;
        Cycle end = 0;
        double factor = 1.0;
    };

    int channels_ = 0;
    std::vector<FaultEvent> events_; ///< resolved, sorted by start
    std::size_t cursor_ = 0;         ///< first unfired event
    Cycle pos_ = 0;                  ///< fault clock
    std::vector<std::uint8_t> online_;
    std::vector<std::uint8_t> failed_;
    /** Active brownout windows: (end cycle, channel). */
    std::vector<std::pair<Cycle, ChannelId>> brownoutEnds_;
    std::vector<Window> stragglers_; ///< all windows, whole run
};

} // namespace neupims::runtime

#endif // NEUPIMS_RUNTIME_FAULT_MODEL_H_
