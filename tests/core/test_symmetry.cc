/**
 * @file
 * Equivalence tests of the channel fold: for every execution mode the
 * paper evaluates (NPU-only, serial/blocked NPU+PIM, NeuPIMs with and
 * without sub-batch interleaving), folding channels whose controllers
 * receive identical work onto one representative controller must
 * produce a bit-identical IterationResult — cycles, throughput,
 * utilizations, traffic, command counts and scheduling statistics —
 * against the unfolded reference run, while actually simulating far
 * fewer controllers. DESIGN.md §5 gives the argument; these tests are
 * the proof obligation. Through the same test peer, ExecutorRows
 * checks that the executor's streams open every row once.
 */

#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <string>
#include <tuple>

#include "core/batch_builder.h"
#include "core/device_config.h"
#include "core/executor.h"
#include "runtime/workload.h"

namespace neupims::core {

/** The unfolded reference run, which only tests may select. */
class DeviceExecutorTestPeer
{
  public:
    static IterationResult
    runUnfolded(DeviceExecutor &ex, const BatchComposition &batch,
                const ExtraMemTraffic &extra, int window_layers,
                int warmup_layers)
    {
        return ex.run(batch, extra, window_layers, warmup_layers, false);
    }

    /** The folded run, handing its memory stack to @p inspect. */
    static IterationResult
    runInspected(DeviceExecutor &ex, const BatchComposition &batch,
                 const ExtraMemTraffic &extra, int window_layers,
                 const std::function<void(const dram::HbmStack &)> &inspect)
    {
        return ex.run(batch, extra, window_layers, 1, true, inspect);
    }
};

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

/** An execution mode, held by value with no pointer members so its
 * printed form, and with it the CTest name, is stable. */
struct ModeParam
{
    char name[16];

    DeviceConfig make() const;
};

void
PrintTo(const ModeParam &m, std::ostream *os)
{
    *os << m.name;
}

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

const auto kModes =
    ::testing::Values(ModeParam{"NpuOnly"}, ModeParam{"SerialNpuPim"},
                      ModeParam{"NeuPimsSerial"}, ModeParam{"NeuPimsSbi"});

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
    EXPECT_EQ(a.memSched.rowHits, b.memSched.rowHits);
    EXPECT_EQ(a.memSched.rowMisses, b.memSched.rowMisses);
    EXPECT_EQ(a.memSched.rowConflicts, b.memSched.rowConflicts);
    EXPECT_EQ(a.memSched.memCommands, b.memSched.memCommands);
    EXPECT_EQ(a.memSched.pimCommands, b.memSched.pimCommands);
    EXPECT_EQ(a.memSched.modeSwitches, b.memSched.modeSwitches);
    EXPECT_EQ(a.memSched.pimStallCycles, b.memSched.pimStallCycles);
    EXPECT_EQ(a.memSched.pimWasteCycles, b.memSched.pimWasteCycles);
    EXPECT_EQ(a.memBankUtil, b.memBankUtil);
    EXPECT_EQ(a.extraTrafficEndCycle, b.extraTrafficEndCycle);
    ASSERT_EQ(a.channelActivity.size(), b.channelActivity.size());
    for (std::size_t ch = 0; ch < a.channelActivity.size(); ++ch) {
        const auto &x = a.channelActivity[ch];
        const auto &y = b.channelActivity[ch];
        EXPECT_EQ(x.windowCycles, y.windowCycles) << "channel " << ch;
        EXPECT_EQ(x.pimBankBusyCycles, y.pimBankBusyCycles)
            << "channel " << ch;
        EXPECT_EQ(x.dualRowBuffers, y.dualRowBuffers) << "channel " << ch;
        for (int i = 0; i < dram::kNumCommandTypes; ++i)
            EXPECT_EQ(x.counts.counts[i], y.counts.counts[i])
                << "channel " << ch << ", command type " << i;
    }
}

/**
 * Run @p comp folded and unfolded on fresh executors, expect
 * bit-identical results and an unfolded run of one class per channel,
 * and return the folded run's class count.
 */
int
expectFoldExact(const DeviceConfig &dev, const BatchComposition &comp,
                int window_layers, const ExtraMemTraffic &extra = {})
{
    auto llm = tinyModel();
    DeviceExecutor unfolded(dev, llm, 1, llm.numLayers);
    DeviceExecutor folded(dev, llm, 1, llm.numLayers);
    auto a = DeviceExecutorTestPeer::runUnfolded(unfolded, comp, extra,
                                                 window_layers, 1);
    auto b = folded.runIteration(comp, extra, window_layers, 1);
    EXPECT_EQ(unfolded.lastSymmetryClasses(), dev.org.channels);
    EXPECT_EQ(a.channelActivity.size(),
              static_cast<std::size_t>(dev.org.channels));
    expectBitIdentical(a, b);
    return folded.lastSymmetryClasses();
}

/**
 * Fold a warm batch built the way engine_grid and Fig. 12 build
 * theirs. NPU-only channels differ only in request count, so a
 * round-robin batch leaves channel 0 plus at most two classes.
 */
void
expectWarmBatchFoldExact(const DeviceConfig &dev,
                         const std::string &dataset, int batch,
                         const ExtraMemTraffic &extra = {})
{
    runtime::WorkloadGenerator gen(runtime::datasetByName(dataset), 42);
    auto comp = buildComposition(gen.warmBatch(batch), dev.org.channels,
                                 dev.flags.minLoadPacking,
                                 latencyParamsFor(dev, tinyModel(), 1));
    int classes = expectFoldExact(
        dev, comp, dev.flags.subBatchInterleaving ? 3 : 2, extra);
    if (dev.kind == SystemKind::NpuOnly) {
        EXPECT_LE(classes, 3);
    }
}

class SymmetryEquivalence : public ::testing::TestWithParam<ModeParam>
{};

TEST_P(SymmetryEquivalence, UniformBatchFoldsBitIdentically)
{
    DeviceConfig dev = GetParam().make();
    auto comp = uniformComposition(96, 192, dev.org.channels);
    // 32 channels collapse to a handful of classes (channel 0 stays a
    // singleton by construction).
    EXPECT_LE(expectFoldExact(dev, comp, 3), 5);
}

TEST_P(SymmetryEquivalence, DistinctCompositionsFallBackExactly)
{
    DeviceConfig dev = GetParam().make();

    // Every channel gets a different KV length. PIM channels then run
    // distinct kernels and stay unfolded; NPU-only channels append the
    // same bytes and stream their share of one all-channel sweep, so
    // they fold to channel 0 plus one class.
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

    const bool npu_only = dev.kind == SystemKind::NpuOnly;
    EXPECT_EQ(expectFoldExact(dev, comp, 3), npu_only ? 2 : channels);
}

/** Odd-sized swap traffic leaves a sub-burst tail on channel 0. */
TEST_P(SymmetryEquivalence, SwapTrafficFoldsBitIdentically)
{
    ExtraMemTraffic extra;
    extra.swapOutBytes = 3 * 1024 * 1024 + 4321;
    extra.swapInBytes = 1024 * 1024 + 77;
    expectWarmBatchFoldExact(GetParam().make(), "ShareGPT", 64, extra);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SymmetryEquivalence, kModes,
    [](const ::testing::TestParamInfo<ModeParam> &pinfo) {
        return std::string(pinfo.param.name);
    });

/** Mode x dataset x batch size of one sampled warm batch. */
using SampledParam = std::tuple<ModeParam, std::string, int>;

class SampledBatchFold : public ::testing::TestWithParam<SampledParam>
{};

TEST_P(SampledBatchFold, FoldsBitIdentically)
{
    const auto &[mode, dataset, batch] = GetParam();
    expectWarmBatchFoldExact(mode.make(), dataset, batch);
}

INSTANTIATE_TEST_SUITE_P(
    Warm, SampledBatchFold,
    ::testing::Combine(kModes,
                       ::testing::Values(std::string("ShareGPT"),
                                         std::string("Alpaca")),
                       ::testing::Values(37, 64, 256)),
    [](const ::testing::TestParamInfo<SampledParam> &pinfo) {
        return std::string(std::get<0>(pinfo.param).name) + "_" +
               std::get<1>(pinfo.param) + "_b" +
               std::to_string(std::get<2>(pinfo.param));
    });

/**
 * The premise of reading row outcomes off the channel's commands, and
 * of paws keeping no row bins (DESIGN.md §11): the DMA engine's
 * forward-only cursor opens every (bank, row) once. On every backend
 * and policy, with swap traffic beside the layer's streams, no MEM row
 * finds its row open, and every completed row activates exactly once
 * on each controller the fold simulates.
 */
TEST(ExecutorRows, EveryRowActivatesOnceOnEveryBackendAndPolicy)
{
    const auto llm = tinyModel();
    ExtraMemTraffic extra;
    extra.swapOutBytes = 3 * 1024 * 1024 + 4321;
    extra.swapInBytes = 1024 * 1024 + 77;
    for (const ModeParam &mode :
         {ModeParam{"NpuOnly"}, ModeParam{"SerialNpuPim"},
          ModeParam{"NeuPimsSerial"}, ModeParam{"NeuPimsSbi"}}) {
        for (dram::MemSchedKind kind :
             {dram::MemSchedKind::FrFcfs, dram::MemSchedKind::Paws}) {
            SCOPED_TRACE(::testing::Message()
                         << mode.name << " " << dram::memSchedKindName(kind));
            DeviceConfig dev = mode.make();
            dev.memSched = kind;
            runtime::WorkloadGenerator gen(runtime::datasetByName("ShareGPT"),
                                           42);
            auto comp = buildComposition(gen.warmBatch(64), dev.org.channels,
                                         dev.flags.minLoadPacking,
                                         latencyParamsFor(dev, llm, 1));
            DeviceExecutor ex(dev, llm, 1, llm.numLayers);
            std::uint64_t rows = 0;
            DeviceExecutorTestPeer::runInspected(
                ex, comp, extra, dev.flags.subBatchInterleaving ? 3 : 2,
                [&rows](const dram::HbmStack &hbm) {
                    for (ChannelId ch = 0; ch < hbm.numChannels(); ++ch) {
                        if (!hbm.isRepresentative(ch))
                            continue;
                        const dram::MemoryController &mc = hbm.controller(ch);
                        const dram::MemSchedStats s = mc.memSchedStats();
                        EXPECT_EQ(s.rowHits, 0u) << "channel " << ch;
                        EXPECT_EQ(s.rowMisses + s.rowConflicts,
                                  mc.completedMemJobs())
                            << "channel " << ch;
                        rows += mc.completedMemJobs();
                    }
                });
            EXPECT_GT(rows, 0u);
        }
    }
}

} // namespace
} // namespace neupims::core
