/**
 * @file
 * Equivalence tests of the channel-symmetry fast path: for every
 * execution mode the paper evaluates (NPU-only, serial/blocked
 * NPU+PIM, NeuPIMs with and without sub-batch interleaving), folding
 * composition-identical channels onto one representative controller
 * must produce a bit-identical IterationResult — cycles, throughput,
 * utilizations, traffic and command counts — while actually
 * simulating far fewer controllers. DESIGN.md §5 gives the argument;
 * these tests are the proof obligation.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/batch_builder.h"
#include "core/device_config.h"
#include "core/executor.h"

namespace neupims::core {
namespace {

/** A small decoder model that keeps the unfolded runs fast. */
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

/** An execution mode, held by value with no pointer members: gtest
 * prints a parameter it has no printer for as its raw bytes, and
 * gtest_discover_tests copies that dump into the CTest names, so a
 * pointer here would rename the cases on every discovery run (ASLR
 * moves the addresses). */
struct ModeParam
{
    char name[16];

    DeviceConfig make() const;
};

DeviceConfig
makeNpuOnly()
{
    return DeviceConfig::npuOnly();
}

DeviceConfig
makeSerialNpuPim()
{
    // Blocked baseline PIM: per-head kernels, serialized channel MHA.
    return DeviceConfig::naiveNpuPim();
}

DeviceConfig
makeNeuPimsSerial()
{
    // Full NeuPIMs features but below the SBI threshold: pipelined
    // MHA + prefetch on a single serial thread.
    auto cfg = DeviceConfig::neuPims();
    cfg.sbiMinBatch = 1 << 20;
    return cfg;
}

DeviceConfig
makeNeuPimsSbi()
{
    // Forced sub-batch interleaving (two pipelined threads).
    auto cfg = DeviceConfig::neuPims();
    cfg.sbiMinBatch = 0;
    return cfg;
}

DeviceConfig
ModeParam::make() const
{
    const std::string mode = name;
    if (mode == "SerialNpuPim")
        return makeSerialNpuPim();
    if (mode == "NeuPimsSerial")
        return makeNeuPimsSerial();
    if (mode == "NeuPimsSbi")
        return makeNeuPimsSbi();
    EXPECT_EQ(mode, "NpuOnly");
    return makeNpuOnly();
}

/** Every IterationResult field, compared for exact equality (EQ on
 * doubles is bitwise equality for the values the engine produces). */
void
expectBitIdentical(const IterationResult &a, const IterationResult &b)
{
    EXPECT_EQ(a.windowCycles, b.windowCycles);
    EXPECT_EQ(a.perLayerCycles, b.perLayerCycles);
    EXPECT_EQ(a.iterationCycles, b.iterationCycles);
    EXPECT_EQ(a.throughputTokensPerSec, b.throughputTokensPerSec);
    EXPECT_EQ(a.npuUtil, b.npuUtil);
    EXPECT_EQ(a.pimUtil, b.pimUtil);
    EXPECT_EQ(a.bwUtil, b.bwUtil);
    EXPECT_EQ(a.vuUtil, b.vuUtil);
    EXPECT_EQ(a.totalFlops, b.totalFlops);
    EXPECT_EQ(a.dataBusBytes, b.dataBusBytes);
    EXPECT_EQ(a.pimBankBusyCycles, b.pimBankBusyCycles);
    for (int i = 0; i < dram::kNumCommandTypes; ++i)
        EXPECT_EQ(a.commands.counts[i], b.commands.counts[i])
            << "command type " << i;
    EXPECT_EQ(a.phases.qkvCycles, b.phases.qkvCycles);
    EXPECT_EQ(a.phases.mhaCycles, b.phases.mhaCycles);
    EXPECT_EQ(a.phases.projFfnCycles, b.phases.projFfnCycles);
    EXPECT_EQ(a.phases.npuUtilQkv, b.phases.npuUtilQkv);
    EXPECT_EQ(a.phases.npuUtilMha, b.phases.npuUtilMha);
    EXPECT_EQ(a.phases.npuUtilProjFfn, b.phases.npuUtilProjFfn);
    EXPECT_EQ(a.phases.pimUtilMha, b.phases.pimUtilMha);
}

class SymmetryEquivalence : public ::testing::TestWithParam<ModeParam>
{};

TEST_P(SymmetryEquivalence, UniformBatchFoldsBitIdentically)
{
    auto llm = tinyModel();
    DeviceConfig dev = GetParam().make();
    auto comp = uniformComposition(96, 192, dev.org.channels);

    DeviceConfig slow_dev = dev;
    slow_dev.flags.channelSymmetry = false;
    DeviceConfig fast_dev = dev;
    fast_dev.flags.channelSymmetry = true;

    DeviceExecutor slow(slow_dev, llm, 1, llm.numLayers);
    DeviceExecutor fast(fast_dev, llm, 1, llm.numLayers);
    auto a = slow.runIteration(comp, 3, 1);
    auto b = fast.runIteration(comp, 3, 1);

    // The guard must have engaged: 32 channels collapse to a handful
    // of classes (channel 0 stays a singleton by construction).
    EXPECT_EQ(slow.lastSymmetryClasses(), dev.org.channels);
    EXPECT_LE(fast.lastSymmetryClasses(), 5);

    expectBitIdentical(a, b);
}

TEST_P(SymmetryEquivalence, DistinctCompositionsFallBackExactly)
{
    auto llm = tinyModel();
    DeviceConfig dev = GetParam().make();

    // Every channel gets a different KV length: no two compositions
    // match, so the guard degenerates to per-channel simulation.
    BatchComposition comp;
    int channels = dev.org.channels;
    comp.full.assign(channels, {});
    comp.sb1.assign(channels, {});
    comp.sb2.assign(channels, {});
    for (int ch = 0; ch < channels; ++ch) {
        int len = 64 + 16 * ch;
        comp.full[ch] = {len, len + 8};
        comp.sb1[ch] = {len};
        comp.sb2[ch] = {len + 8};
    }

    DeviceConfig slow_dev = dev;
    slow_dev.flags.channelSymmetry = false;
    DeviceConfig fast_dev = dev;
    fast_dev.flags.channelSymmetry = true;

    DeviceExecutor slow(slow_dev, llm, 1, llm.numLayers);
    DeviceExecutor fast(fast_dev, llm, 1, llm.numLayers);
    auto a = slow.runIteration(comp, 3, 1);
    auto b = fast.runIteration(comp, 3, 1);

    EXPECT_EQ(fast.lastSymmetryClasses(), channels);
    expectBitIdentical(a, b);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SymmetryEquivalence,
    ::testing::Values(ModeParam{"NpuOnly"}, ModeParam{"SerialNpuPim"},
                      ModeParam{"NeuPimsSerial"}, ModeParam{"NeuPimsSbi"}),
    [](const ::testing::TestParamInfo<ModeParam> &pinfo) {
        return std::string(pinfo.param.name);
    });

} // namespace
} // namespace neupims::core
