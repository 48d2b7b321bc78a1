/**
 * @file
 * Unit tests for device configuration presets, the batch builder
 * bridge, the GPU/TransPIM baselines, the multi-device system, the
 * metrics helpers and serving-run assembly.
 */

#include <gtest/gtest.h>

#include "core/batch_builder.h"
#include "core/device_config.h"
#include "core/gpu_model.h"
#include "core/metrics.h"
#include "core/serving_setup.h"
#include "core/system.h"
#include "core/transpim_executor.h"

namespace neupims::core {
namespace {

// --- DeviceConfig presets --------------------------------------------

TEST(DeviceConfig, PresetFlagsMatchPaperSystems)
{
    auto npu = DeviceConfig::npuOnly();
    EXPECT_EQ(npu.kind, SystemKind::NpuOnly);
    EXPECT_FALSE(npu.flags.dualRowBuffers);

    auto naive = DeviceConfig::naiveNpuPim();
    EXPECT_EQ(naive.kind, SystemKind::NpuPim);
    EXPECT_FALSE(naive.flags.dualRowBuffers);
    EXPECT_FALSE(naive.flags.compositeGemv());
    EXPECT_FALSE(naive.flags.minLoadPacking);
    EXPECT_FALSE(naive.flags.subBatchInterleaving);

    auto neu = DeviceConfig::neuPims();
    EXPECT_TRUE(neu.flags.dualRowBuffers);
    EXPECT_TRUE(neu.flags.compositeGemv());
    EXPECT_TRUE(neu.flags.minLoadPacking);
    EXPECT_TRUE(neu.flags.subBatchInterleaving);
    EXPECT_TRUE(neu.flags.pipelinedMha());
}

TEST(DeviceConfig, AblationStacksFeatures)
{
    auto s1 = DeviceConfig::ablation(true, false, false);
    EXPECT_TRUE(s1.flags.dualRowBuffers);
    EXPECT_FALSE(s1.flags.minLoadPacking);
    auto s3 = DeviceConfig::ablation(true, true, true);
    EXPECT_TRUE(s3.flags.subBatchInterleaving);
    EXPECT_EQ(s3.sbiMinBatch, 0); // forced for the Fig. 13 sweep
    EXPECT_EQ(s3.name, "NPU+PIM+DRB+GMLBP+SBI");
}

TEST(DeviceConfig, ControllerConfigTracksBuffers)
{
    auto neu = DeviceConfig::neuPims();
    EXPECT_TRUE(neu.controllerConfig().dualRowBuffers);
    EXPECT_FALSE(neu.controllerConfig().blockedMode());
    auto naive = DeviceConfig::naiveNpuPim();
    EXPECT_TRUE(naive.controllerConfig().blockedMode());
}

TEST(DeviceConfig, Table2Defaults)
{
    auto dev = DeviceConfig::neuPims();
    EXPECT_EQ(dev.npu.systolicArrays, 8);
    EXPECT_EQ(dev.npu.sa.rows, 128);
    EXPECT_EQ(dev.org.channels, 32);
    EXPECT_EQ(dev.org.banksPerChannel, 32);
    EXPECT_EQ(dev.org.pageBytes, 1024u);
    EXPECT_EQ(dev.timing.tRP, 14u);
    EXPECT_EQ(dev.timing.tFAW, 30u);
    EXPECT_EQ(dev.org.deviceCapacity(), 32_GiB);
}

// --- batch builder ----------------------------------------------------

TEST(BatchBuilder, CompositionCoversAllSamples)
{
    auto dev = DeviceConfig::neuPims();
    auto llm = model::gpt3_7b();
    std::vector<runtime::SequenceSample> samples(37);
    for (int i = 0; i < 37; ++i)
        samples[i] = {10 + i, 20, i % 10};
    auto comp = buildComposition(samples, dev.org.channels, true,
                                 latencyParamsFor(dev, llm, 4));
    EXPECT_EQ(comp.batchSize(), 37);
    EXPECT_EQ(requestCount(comp.sb1) + requestCount(comp.sb2), 37);
}

TEST(BatchBuilder, SeqLensIncludeProgress)
{
    auto dev = DeviceConfig::neuPims();
    auto llm = model::gpt3_7b();
    std::vector<runtime::SequenceSample> samples = {{100, 50, 25}};
    auto comp = buildComposition(samples, dev.org.channels, true,
                                 latencyParamsFor(dev, llm, 4));
    int found = 0;
    for (const auto &ch : comp.full)
        for (int l : ch) {
            EXPECT_EQ(l, 125);
            ++found;
        }
    EXPECT_EQ(found, 1);
}

TEST(BatchBuilder, MinLoadSpreadsBetterThanRoundRobinTail)
{
    auto dev = DeviceConfig::neuPims();
    auto llm = model::gpt3_7b();
    // Heavy-tailed lengths on few channels.
    std::vector<runtime::SequenceSample> samples;
    for (int i = 0; i < 64; ++i)
        samples.push_back({i % 8 == 0 ? 2000 : 50, 10, 0});
    auto est = latencyParamsFor(dev, llm, 4);
    auto ml = buildComposition(samples, 8, true, est);
    auto rr = buildComposition(samples, 8, false, est);
    auto max_tokens = [](const BatchComposition &c) {
        int best = 0;
        for (const auto &ch : c.full) {
            int sum = 0;
            for (int l : ch)
                sum += l;
            best = std::max(best, sum);
        }
        return best;
    };
    EXPECT_LT(max_tokens(ml), max_tokens(rr));
}

TEST(BatchBuilder, LatencyParamsMirrorDeviceAndModel)
{
    auto dev = DeviceConfig::neuPims();
    auto llm = model::gpt3_30b();
    auto p = latencyParamsFor(dev, llm, 4);
    EXPECT_DOUBLE_EQ(p.embeddingSize, 1792.0);
    EXPECT_DOUBLE_EQ(p.numHeads, 14.0);
    EXPECT_DOUBLE_EQ(p.dramPageElems, 512.0);
    EXPECT_GT(p.tileLatency, 0.0);
}

// --- GPU model ---------------------------------------------------------

TEST(GpuModel, LayerTimeDecreasesWithTp)
{
    GpuModel gpu{GpuConfig{}};
    auto llm = model::gpt3_30b();
    auto t1 = gpu.layerTiming(llm, 1, 128, 300);
    auto t4 = gpu.layerTiming(llm, 4, 128, 300);
    EXPECT_LT(t4.totalSeconds, t1.totalSeconds);
}

TEST(GpuModel, AttentionScalesWithContext)
{
    GpuModel gpu{GpuConfig{}};
    auto llm = model::gpt3_13b();
    auto short_ctx = gpu.layerTiming(llm, 4, 128, 100);
    auto long_ctx = gpu.layerTiming(llm, 4, 128, 800);
    EXPECT_GT(long_ctx.mhaSeconds, short_ctx.mhaSeconds * 4);
    EXPECT_NEAR(long_ctx.gemmSeconds, short_ctx.gemmSeconds, 1e-9);
}

TEST(GpuModel, UtilizationsBounded)
{
    GpuModel gpu{GpuConfig{}};
    auto llm = model::gpt3_175b();
    auto t = gpu.layerTiming(llm, 8, 256, 376);
    EXPECT_GT(t.computeUtil, 0.0);
    EXPECT_LT(t.computeUtil, 1.0);
    EXPECT_GT(t.bandwidthUtil, 0.0);
    EXPECT_LT(t.bandwidthUtil, 1.0);
}

TEST(GpuModel, ThroughputGrowsSubLinearlyWithBatch)
{
    GpuModel gpu{GpuConfig{}};
    auto llm = model::gpt3_13b();
    double t64 = gpu.throughput(llm, 4, 1, 64, 300);
    double t256 = gpu.throughput(llm, 4, 1, 256, 300);
    EXPECT_GT(t256, t64);
    EXPECT_LT(t256, t64 * 4.0);
}

// --- TransPIM -----------------------------------------------------------

TEST(TransPim, RoundCyclesMatchFormula)
{
    const auto dev = DeviceConfig::neuPims();
    TransPimExecutor tp(dev);
    const auto &t = dev.timing;
    Cycle groups = (t.pimParallelBanks + 3) / 4;
    EXPECT_EQ(tp.roundCycles(),
              groups * t.tRRD_L + t.tRCD + t.pimComputePerRow);
}

TEST(TransPim, NoBatchAmortization)
{
    TransPimExecutor tp{DeviceConfig::neuPims()};
    auto llm = model::gpt3_7b();
    Cycle one = tp.layerCycles(llm, 4, 1, 300);
    Cycle many = tp.layerCycles(llm, 4, 64, 300);
    // GEMM cost is strictly per token: ~64x for 64 requests.
    EXPECT_GT(many, one * 50);
}

TEST(TransPim, ThroughputFlatAcrossBatch)
{
    TransPimExecutor tp{DeviceConfig::neuPims()};
    auto llm = model::gpt3_7b();
    double t64 = tp.throughput(llm, 4, 1, 64, 300);
    double t512 = tp.throughput(llm, 4, 1, 512, 300);
    EXPECT_NEAR(t512 / t64, 1.0, 0.15); // Fig. 15's root cause
}

// --- multi-device system -------------------------------------------------

TEST(MultiDeviceSystem, DeviceCountAndMicroBatch)
{
    auto dev = DeviceConfig::neuPims();
    auto llm = model::gpt3_7b();
    ParallelismConfig par;
    par.tp = 2;
    par.pp = 2;
    MultiDeviceSystem sys(dev, llm, par);
    std::vector<runtime::SequenceSample> samples(64, {100, 20, 5});
    auto res = sys.run(samples);
    EXPECT_EQ(res.devices, 4);
    EXPECT_EQ(res.perDeviceBatch, 32);
    EXPECT_GT(res.tokensPerSec, 0.0);
}

TEST(MultiDeviceSystem, TensorParallelAddsCommunication)
{
    auto dev = DeviceConfig::naiveNpuPim(); // no SBI comm overlap
    auto llm = model::gpt3_7b();
    std::vector<runtime::SequenceSample> samples(64, {100, 20, 5});
    ParallelismConfig tp1{1, 1};
    ParallelismConfig tp4{4, 1};
    MultiDeviceSystem s1(dev, llm, tp1);
    MultiDeviceSystem s4(dev, llm, tp4);
    EXPECT_EQ(s1.run(samples).commCyclesPerLayer, 0u);
    EXPECT_GT(s4.run(samples).commCyclesPerLayer, 0u);
}

TEST(MultiDeviceSystemDeathTest, InvalidShardingIsCaught)
{
    auto dev = DeviceConfig::neuPims();
    auto llm = model::gpt3_30b(); // 56 heads, 48 layers
    ParallelismConfig par;
    par.tp = 16; // does not divide 56
    EXPECT_DEATH(MultiDeviceSystem(dev, llm, par), "tp");
}

// --- metrics --------------------------------------------------------------

TEST(Metrics, GeomeanOfConstantIsConstant)
{
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
}

TEST(Metrics, FormattingHelpers)
{
    EXPECT_EQ(TableWriter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TableWriter::percent(0.6489), "64.9%");
    EXPECT_DOUBLE_EQ(kiloTokensPerSec(22183.0), 22.183);
}

TEST(MetricsDeathTest, GeomeanRejectsNonPositive)
{
    EXPECT_DEATH((void)geomean({1.0, 0.0}), "assertion");
    EXPECT_DEATH((void)geomean({}), "assertion");
}

// --- serving-run assembly ---------------------------------------------

TEST(ServingSetup, RunSeedSeedsTheRetryStream)
{
    ServingRun run;
    run.rate = 1.0;
    run.requests = 4;
    run.seed = 7;
    auto setup =
        setupServingRun(DeviceConfig::neuPims(), model::gpt3_7b(), run);
    EXPECT_NE(runtime::ClientRetryConfig{}.seed, run.seed);
    EXPECT_EQ(setup.config.client.seed, run.seed);
}

} // namespace
} // namespace neupims::core
