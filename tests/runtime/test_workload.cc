/**
 * @file
 * Unit tests for the synthetic ShareGPT/Alpaca workload generators:
 * calibration to the paper's published means, determinism, warm-batch
 * semantics.
 */

#include <gtest/gtest.h>

#include "runtime/workload.h"

namespace neupims::runtime {
namespace {

TEST(Workload, DatasetMeansMatchPaper)
{
    auto sg = shareGptDataset();
    EXPECT_DOUBLE_EQ(sg.inputMean, 80.0);
    EXPECT_DOUBLE_EQ(sg.outputMean, 296.0);
    auto al = alpacaDataset();
    EXPECT_DOUBLE_EQ(al.inputMean, 12.0);
    EXPECT_DOUBLE_EQ(al.outputMean, 56.0);
}

TEST(Workload, SampledMeansConverge)
{
    WorkloadGenerator gen(shareGptDataset(), 1);
    double in_sum = 0, out_sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        auto s = gen.sample();
        in_sum += s.inputLength;
        out_sum += s.outputLength;
    }
    EXPECT_NEAR(in_sum / n, 80.0, 6.0);
    EXPECT_NEAR(out_sum / n, 296.0, 25.0);
}

TEST(Workload, LengthsArePositiveAndClamped)
{
    auto cfg = alpacaDataset();
    cfg.maxLength = 100;
    WorkloadGenerator gen(cfg, 2);
    for (int i = 0; i < 5000; ++i) {
        auto s = gen.sample();
        EXPECT_GE(s.inputLength, 1);
        EXPECT_LE(s.inputLength, 100);
        EXPECT_GE(s.outputLength, 1);
        EXPECT_LE(s.outputLength, 100);
    }
}

TEST(Workload, DeterministicAcrossInstances)
{
    WorkloadGenerator a(shareGptDataset(), 42);
    WorkloadGenerator b(shareGptDataset(), 42);
    for (int i = 0; i < 100; ++i) {
        auto sa = a.sample();
        auto sb = b.sample();
        EXPECT_EQ(sa.inputLength, sb.inputLength);
        EXPECT_EQ(sa.outputLength, sb.outputLength);
    }
}

TEST(Workload, WarmBatchProgressWithinOutput)
{
    WorkloadGenerator gen(shareGptDataset(), 3);
    auto batch = gen.warmBatch(512);
    ASSERT_EQ(batch.size(), 512u);
    for (const auto &s : batch) {
        EXPECT_GE(s.generatedTokens, 0);
        EXPECT_LT(s.generatedTokens, s.outputLength);
    }
}

TEST(Workload, WarmBatchMixesProgress)
{
    WorkloadGenerator gen(shareGptDataset(), 4);
    auto batch = gen.warmBatch(256);
    int with_progress = 0;
    for (const auto &s : batch)
        with_progress += (s.generatedTokens > 0);
    // The overwhelming majority should be mid-generation.
    EXPECT_GT(with_progress, 128);
}

TEST(Workload, ShareGptLongerThanAlpaca)
{
    WorkloadGenerator sg(shareGptDataset(), 5);
    WorkloadGenerator al(alpacaDataset(), 5);
    double sg_sum = 0, al_sum = 0;
    for (int i = 0; i < 4000; ++i) {
        auto a = sg.sample();
        auto b = al.sample();
        sg_sum += a.inputLength + a.outputLength;
        al_sum += b.inputLength + b.outputLength;
    }
    EXPECT_GT(sg_sum, al_sum * 3);
}

// Dataset names come from flags and spec tables: an unknown one is a
// fatal() naming it, never a silent fallback to ShareGPT.
TEST(Workload, DatasetByNameIsStrict)
{
    EXPECT_EQ(datasetByName("ShareGPT").name, "ShareGPT");
    EXPECT_EQ(datasetByName("Alpaca").name, "Alpaca");
    EXPECT_EXIT(datasetByName("sharegpt"), ::testing::ExitedWithCode(1),
                "unknown dataset 'sharegpt'");
}

} // namespace
} // namespace neupims::runtime
