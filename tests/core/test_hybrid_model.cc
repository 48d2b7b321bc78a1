/**
 * @file
 * Property tests of the engine-backed (hybrid-fidelity) iteration
 * model: sampled windows price exactly as a direct event-engine run
 * (sample_every = 1 prices every iteration that way), mixed and
 * prefill-only iterations rescale the decode measurement by analytic
 * ratios, the DRAM summary accumulates over engine runs only, the
 * periodic cadence and the forced-sample triggers fire when — and
 * only when — the composition signature changes, and fast-forwarded
 * iterations sit on the measured clock via their anchor key's ratio.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <vector>

#include "core/iteration_model.h"
#include "core/serving_setup.h"
#include "runtime/batch_scheduler.h"

namespace neupims::core {
namespace {

/** A small decoder model that keeps the engine samples fast. */
model::LlmConfig
tinyModel()
{
    model::LlmConfig cfg;
    cfg.name = "tiny-1B";
    cfg.numLayers = 8;
    cfg.numHeads = 8;
    cfg.dModel = 1024;
    cfg.defaultTp = 1;
    cfg.defaultPp = 1;
    return cfg;
}

DeviceConfig
testDevice()
{
    auto dev = DeviceConfig::neuPims();
    dev.sbiMinBatch = 1 << 20; // serial pipeline: cheap samples
    return dev;
}

/** @p schedule's composition on the 32-channel test devices, filled
 * into fresh storage. */
MixedComposition
freshComposition(const runtime::IterationSchedule &schedule)
{
    MixedComposition mix;
    fillComposition(schedule, DeviceConfig::neuPims().org.channels, mix);
    return mix;
}

/**
 * Owns the Request storage behind hand-built IterationSchedules: the
 * schedule holds raw pointers, so the factory must outlive every
 * schedule it makes.
 */
class ScheduleFactory
{
  public:
    /** Decode-only schedule: @p per_channel KV lengths. */
    runtime::IterationSchedule
    make(const std::vector<std::vector<int>> &per_channel)
    {
        runtime::IterationSchedule s;
        for (std::size_t ch = 0; ch < per_channel.size(); ++ch) {
            for (int len : per_channel[ch]) {
                requests_.emplace_back();
                runtime::Request &req = requests_.back();
                req.id = static_cast<RequestId>(requests_.size() - 1);
                req.channel = static_cast<ChannelId>(ch);
                req.inputLength = len;
                req.phase = runtime::RequestPhase::Decode;
                s.batch.push_back(&req);
            }
        }
        return s;
    }

    /** Uniform decode schedule: @p per_ch requests of @p len on each
     * of @p channels channels (0 requests: an empty decode batch). */
    runtime::IterationSchedule
    uniform(int channels, int per_ch, int len)
    {
        std::vector<std::vector<int>> lens(
            static_cast<std::size_t>(channels),
            std::vector<int>(static_cast<std::size_t>(per_ch), len));
        return make(lens);
    }

    /** @p s plus one prefilling request per entry of @p slices,
     * prefilling newTokens prompt tokens from startToken. */
    runtime::IterationSchedule
    withPrefill(runtime::IterationSchedule s,
                const std::vector<model::PrefillSliceSpec> &slices)
    {
        for (const auto &spec : slices) {
            runtime::Request &req = *dummy();
            req.id = static_cast<RequestId>(requests_.size() - 1);
            req.channel = spec.channel;
            req.inputLength = spec.startToken + spec.newTokens;
            req.phase = runtime::RequestPhase::Prefill;
            s.prefill.push_back({&req, spec.startToken, spec.newTokens});
        }
        return s;
    }

    runtime::Request *
    dummy()
    {
        requests_.emplace_back();
        return &requests_.back();
    }

  private:
    std::deque<runtime::Request> requests_;
};

/** N = 1 prices every iteration on the engine: exactly a direct
 * DeviceExecutor run of the composition with every sequence length
 * rounded up to the quantum (129 is the shortest length that rounds
 * to 192). */
TEST(HybridModel, SampleEveryOneMatchesDirectEngineRun)
{
    auto llm = tinyModel();
    auto dev = testDevice();
    int layers = llm.numLayers;

    HybridIterationModel hybrid(dev, llm, 1, layers,
                                /*sample_every=*/1);
    DeviceExecutor reference(dev, llm, 1, layers);
    const int window = dev.flags.subBatchInterleaving ? 3 : 2;
    const int q = HybridIterationModel::kQuantizeSeq;

    ScheduleFactory f;
    for (int step = 0; step < 4; ++step) {
        int rounded = 128 + q * step;
        int len = step == 0 ? rounded : rounded - q + 1;
        auto s = f.uniform(dev.org.channels, 2, len);
        auto exact = f.uniform(dev.org.channels, 2, rounded);
        Cycle direct =
            reference.runIteration(freshComposition(exact).decode, window, 1)
                .iterationCycles;
        EXPECT_EQ(hybrid.iterationCycles(s), direct) << "step " << step;
    }
    EXPECT_EQ(hybrid.fastForwarded(), 0u);
    EXPECT_EQ(hybrid.sampledIterations(), 4u);
    EXPECT_EQ(hybrid.executorRuns(), 4u);
}

/** The engine runs decode only: a mixed iteration scales the measured
 * decode cycles by the analytic mixed/decode ratio, and a
 * prefill-only iteration rescales its analytic price by the latest
 * engine run's measured/analytic quotient. Neither runs the engine. */
TEST(HybridModel, MixedPricingScalesDecodeMeasurementByAnalyticRatio)
{
    auto llm = model::gpt3_7b();
    DeviceConfig dev = DeviceConfig::neuPims();
    dev.flags.subBatchInterleaving = false;
    HybridIterationModel m(dev, llm, llm.defaultTp, 2,
                           /*sample_every=*/1);
    AnalyticIterationModel analytic(dev, llm, llm.defaultTp, 2);

    ScheduleFactory f;
    auto decode = f.uniform(dev.org.channels, 1, 256);
    Cycle measured_decode = m.iterationCycles(decode);
    ASSERT_GT(measured_decode, 0u);

    auto mixed = f.withPrefill(f.uniform(dev.org.channels, 1, 256),
                               {{0, 0, 128}});
    Cycle mixed_cycles = m.iterationCycles(mixed);
    EXPECT_GT(mixed_cycles, measured_decode);
    // The scaling is a ratio, not an unbounded add-on: a modest
    // prefill chunk cannot triple the decode iteration.
    EXPECT_LT(mixed_cycles, measured_decode * 3);
    double mixed_over_decode =
        static_cast<double>(
            analytic.iterationCyclesFor(freshComposition(mixed))) /
        static_cast<double>(
            analytic.iterationCyclesFor(freshComposition(mixed).decode));
    EXPECT_EQ(mixed_cycles,
              static_cast<Cycle>(static_cast<double>(measured_decode) *
                                 mixed_over_decode));

    auto prefill_only =
        f.withPrefill(f.uniform(dev.org.channels, 0, 0), {{0, 0, 128}});
    double quotient = static_cast<double>(measured_decode) /
                      static_cast<double>(analytic.iterationCycles(decode));
    EXPECT_EQ(m.iterationCycles(prefill_only),
              static_cast<Cycle>(
                  static_cast<double>(analytic.iterationCycles(prefill_only)) *
                  quotient));
    EXPECT_EQ(m.executorRuns(), 1u);
}

/** The DRAM summary accumulates over engine runs only: invalid
 * before the first, and a cache hit replays a latency without adding
 * stats. */
TEST(HybridModel, EngineRunsAccumulateMemSchedSummary)
{
    auto llm = model::gpt3_13b();
    const auto &backend = servingBackendByName("NeuPIMs+SBI");
    auto m = makeHybridIterationModel(backend.device, llm,
                                      /*sample_every=*/1);
    EXPECT_FALSE(m->memSchedSummary().valid);

    ScheduleFactory f;
    const int channels = backend.device.org.channels;
    m->iterationCycles(f.uniform(channels, 2, 512));
    auto once = m->memSchedSummary();
    ASSERT_TRUE(once.valid);
    EXPECT_EQ(once.policy, "frfcfs");
    EXPECT_GT(once.memCommands, 0u);

    m->iterationCycles(f.uniform(channels, 2, 512)); // cache hit
    EXPECT_EQ(m->executorRuns(), 1u);
    EXPECT_EQ(m->memSchedSummary().memCommands, once.memCommands);
}

TEST(HybridModel, PeriodicCadenceAndStableFastForward)
{
    auto llm = tinyModel();
    auto dev = testDevice();
    HybridIterationModel hybrid(dev, llm, 1, llm.numLayers,
                                /*sample_every=*/4);

    ScheduleFactory f;
    auto s = f.uniform(dev.org.channels, 2, 256);
    Cycle measured = 0;
    for (int i = 0; i < 9; ++i) {
        Cycle c = hybrid.iterationCycles(s);
        if (i == 0)
            measured = c;
        // An unchanged composition fast-forwards onto exactly the
        // anchored value (ratio x analytic == measured, up to the
        // final integer truncation).
        EXPECT_NEAR(static_cast<double>(c),
                    static_cast<double>(measured), 1.0)
            << "iteration " << i;
    }
    // Iterations 0, 4, 8 sampled; the rest fast-forwarded; nothing
    // forced (the signature never changed).
    EXPECT_EQ(hybrid.sampledIterations(), 3u);
    EXPECT_EQ(hybrid.fastForwarded(), 6u);
    EXPECT_EQ(hybrid.forcedSamples(), 0u);
}

TEST(HybridModel, ForcedSampleFiresOnEveryCompositionChange)
{
    auto llm = tinyModel();
    auto dev = testDevice();
    // sample_every large enough that only iteration 0 is a periodic
    // boundary: every further sample below must be forced.
    HybridIterationModel hybrid(dev, llm, 1, llm.numLayers,
                                /*sample_every=*/1000);

    ScheduleFactory f;
    auto base = [&] { return f.uniform(dev.org.channels, 2, 256); };

    std::uint64_t forced = 0;
    auto expectForces = [&](runtime::IterationSchedule s,
                            const char *what) {
        hybrid.iterationCycles(s); // composition change -> sample
        ++forced;
        EXPECT_EQ(hybrid.forcedSamples(), forced) << "on " << what;
        hybrid.iterationCycles(base()); // change back -> sample again
        ++forced;
        EXPECT_EQ(hybrid.forcedSamples(), forced) << "after " << what;
    };

    hybrid.iterationCycles(base()); // iteration 0: periodic sample
    hybrid.iterationCycles(base()); // unchanged: fast-forward
    EXPECT_EQ(hybrid.forcedSamples(), 0u);
    EXPECT_EQ(hybrid.fastForwarded(), 1u);

    { // batch-size step (one full bucket larger)
        auto s = f.uniform(dev.org.channels, 3, 256);
        expectForces(s, "batch-size step");
    }
    { // preemption at this boundary
        auto s = base();
        s.preemptedNow.push_back(f.dummy());
        expectForces(s, "preemption");
    }
    { // restore at this boundary
        auto s = base();
        s.restoredNow.push_back(f.dummy());
        expectForces(s, "restore");
    }
    { // swap traffic
        auto s = base();
        s.swapOutBytes = 1 << 20;
        s.swapBytesPerCycle = 64.0;
        expectForces(s, "swap traffic");
    }
    { // fault eviction
        auto s = base();
        s.faultPreemptedNow.push_back(f.dummy());
        expectForces(s, "fault eviction");
    }
    { // load shedding
        auto s = base();
        s.shedNow.push_back(7);
        expectForces(s, "load shedding");
    }
    { // straggler window opening
        auto s = base();
        s.channelLoads = {100.0, 100.0};
        s.channelSlowdowns = {2.0, 1.0};
        expectForces(s, "straggler window");
    }
    // Every engine sample beyond iteration 0 above was forced.
    EXPECT_EQ(hybrid.sampledIterations(), 1u + forced);
}

/** A fast-forward that misses the engine cache prices on its own
 * anchor key's ratio, not on the running ratio a later sample of
 * another key left behind. */
TEST(HybridModel, FastForwardPricesOnItsAnchorKeyRatio)
{
    auto llm = tinyModel();
    auto dev = testDevice();
    const int channels = dev.org.channels;
    // Periodic samples at iterations 0 and 2; 1 and 3 fast-forward.
    HybridIterationModel hybrid(dev, llm, 1, llm.numLayers,
                                /*sample_every=*/2);
    AnalyticIterationModel analytic(dev, llm, 1, llm.numLayers);

    ScheduleFactory f;
    // A: 2 requests per channel at 256 tokens.
    hybrid.iterationCycles(f.uniform(channels, 2, 256));
    const double ratio_a = hybrid.ratio();
    hybrid.iterationCycles(f.uniform(channels, 2, 256)); // cache hit
    // Another KV key, same signature: a periodic sample that moves
    // the running ratio.
    hybrid.iterationCycles(f.uniform(channels, 2, 1024));
    const double ratio_other = hybrid.ratio();
    EXPECT_EQ(hybrid.anchorCount(), 2u);

    // B: per channel {192, 320} — A's batch bucket and mean KV length
    // (A's anchor key), but a composition the engine never ran.
    std::vector<std::vector<int>> lens(
        static_cast<std::size_t>(channels), std::vector<int>{192, 320});
    auto b = f.make(lens);
    const double analytic_b =
        static_cast<double>(analytic.iterationCycles(b));
    // The two ratios must price B apart, or the test proves nothing.
    ASSERT_GT(std::abs(ratio_a - ratio_other) * analytic_b, 2.0);

    Cycle ff = hybrid.iterationCycles(b);
    EXPECT_EQ(hybrid.fastForwarded(), 2u);
    EXPECT_EQ(hybrid.fastForwardCacheHits(), 1u);
    EXPECT_EQ(hybrid.executorRuns(), 2u);
    EXPECT_NEAR(static_cast<double>(ff), analytic_b * ratio_a, 1.0);
}

TEST(HybridModel, SwapOnlyBoundaryLeavesRatioUntouched)
{
    auto llm = tinyModel();
    auto dev = testDevice();
    HybridIterationModel hybrid(dev, llm, 1, llm.numLayers, 4);

    ScheduleFactory f;
    runtime::IterationSchedule transfer;
    transfer.swapInBytes = 8 << 20;
    transfer.swapBytesPerCycle = 64.0;

    // Iteration 0 is a periodic sample, but a transfer-only boundary
    // has no compute to anchor on: the ratio must stay 1.0 instead of
    // absorbing the trivially-identical swap pricing.
    Cycle c = hybrid.iterationCycles(transfer);
    EXPECT_GT(c, 0u);
    EXPECT_EQ(hybrid.ratio(), 1.0);
    EXPECT_EQ(hybrid.anchorCount(), 0u);
}

} // namespace
} // namespace neupims::core
