/**
 * @file
 * Unit tests of the iteration-latency models' mixed prefill+decode
 * pricing: prefill work always costs cycles, the cost grows with the
 * prompt tokens scheduled, an empty prefill set degenerates to the
 * decode-only price, and the pipelined-MHA piggyback credit hides
 * part of the NPU prefill work.
 * The engine-backed model's mixed pricing is tested in
 * test_hybrid_model.cc.
 */

#include <gtest/gtest.h>

#include "core/iteration_model.h"
#include "core/serving_setup.h"

namespace neupims::core {
namespace {

MixedComposition
mixOf(int batch, int seq_len, int channels,
      std::vector<model::PrefillSliceSpec> prefill)
{
    MixedComposition mix;
    if (batch >= 1) {
        mix.decode = uniformComposition(batch, seq_len, channels);
    } else {
        mix.decode.full.assign(static_cast<std::size_t>(channels), {});
        mix.decode.sb1 = mix.decode.full;
        mix.decode.sb2 = mix.decode.full;
    }
    mix.prefill = std::move(prefill);
    return mix;
}

TEST(AnalyticMixedPricing, EmptyPrefillEqualsDecodeOnly)
{
    auto llm = model::gpt3_13b();
    for (const auto &backend : standardServingBackends()) {
        AnalyticIterationModel m(backend.device, llm, llm.defaultTp,
                                 llm.layersPerDevice(llm.defaultPp));
        auto mix = mixOf(64, 512, backend.device.org.channels, {});
        EXPECT_EQ(m.iterationCyclesFor(mix),
                  m.iterationCyclesFor(mix.decode))
            << backend.name;
    }
}

TEST(AnalyticMixedPricing, PrefillAlwaysCostsCycles)
{
    auto llm = model::gpt3_13b();
    for (const auto &backend : standardServingBackends()) {
        AnalyticIterationModel m(backend.device, llm, llm.defaultTp,
                                 llm.layersPerDevice(llm.defaultPp));
        int channels = backend.device.org.channels;
        Cycle decode_only =
            m.iterationCyclesFor(uniformComposition(64, 512, channels));
        Cycle mixed = m.iterationCyclesFor(
            mixOf(64, 512, channels, {{0, 0, 256}}));
        EXPECT_GT(mixed, decode_only) << backend.name;

        // Prefill-only iterations price above zero too.
        Cycle prefill_only = m.iterationCyclesFor(
            mixOf(0, 1, channels, {{0, 0, 256}}));
        EXPECT_GT(prefill_only, 0u) << backend.name;
    }
}

TEST(AnalyticMixedPricing, CostGrowsWithPrefillTokens)
{
    auto llm = model::gpt3_13b();
    const auto &backend = servingBackendByName("NeuPIMs+SBI");
    AnalyticIterationModel m(backend.device, llm, llm.defaultTp,
                             llm.layersPerDevice(llm.defaultPp));
    int channels = backend.device.org.channels;
    Cycle small = m.iterationCyclesFor(
        mixOf(64, 512, channels, {{0, 0, 64}}));
    Cycle large = m.iterationCyclesFor(
        mixOf(64, 512, channels, {{0, 0, 512}}));
    EXPECT_LT(small, large);
}

TEST(AnalyticMixedPricing, PiggybackCreditNeedsPipelinedMha)
{
    // Same NPU-side prefill work on both devices: the pipelined PIM
    // path hides part of it under the decode MHA span (the piggyback
    // slack), the rigid interface hides none, so the absolute prefill
    // add-on (mixed minus decode-only cycles) must be strictly
    // smaller on the pipelined device.
    auto llm = model::gpt3_13b();
    auto addon = [&](const DeviceConfig &dev) {
        AnalyticIterationModel m(dev, llm, llm.defaultTp,
                                 llm.layersPerDevice(llm.defaultPp));
        int channels = dev.org.channels;
        double decode_only = static_cast<double>(
            m.iterationCyclesFor(uniformComposition(64, 512,
                                                    channels)));
        double mixed = static_cast<double>(m.iterationCyclesFor(
            mixOf(64, 512, channels, {{0, 0, 256}})));
        return mixed - decode_only;
    };
    DeviceConfig serial = DeviceConfig::neuPims();
    serial.flags.subBatchInterleaving = false;
    double pipelined = addon(serial);
    double rigid = addon(DeviceConfig::naiveNpuPim());
    EXPECT_GT(pipelined, 0.0);
    EXPECT_LT(pipelined, rigid);
}

} // namespace
} // namespace neupims::core
