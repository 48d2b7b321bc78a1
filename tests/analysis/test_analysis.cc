/**
 * @file
 * Unit tests for the analysis layer: roofline math (Fig. 4), GPU
 * utilization study (Fig. 5) and the dual-row-buffer area estimate.
 */

#include <gtest/gtest.h>

#include "analysis/area_model.h"
#include "analysis/gpu_util.h"
#include "analysis/roofline.h"

namespace neupims::analysis {
namespace {

// --- roofline ----------------------------------------------------------

TEST(Roofline, BalancePointFromSpecs)
{
    MachineSpec m;
    m.peakTflops = 200.0;
    m.memGBps = 1000.0;
    EXPECT_DOUBLE_EQ(m.balance(), 200.0);
}

TEST(Roofline, AttainableCapsAtPeak)
{
    MachineSpec m;
    EXPECT_DOUBLE_EQ(attainable(m, 1e9), m.peakTflops);
    EXPECT_NEAR(attainable(m, 1.0), m.memGBps * 1e-3, 1e-9);
}

TEST(Roofline, GenerationGemvIsMemoryBoundAtAnyBatch)
{
    MachineSpec machine;
    for (int batch : {1, 64, 512}) {
        auto pts = rooflinePoints(model::gpt3_13b(), machine, batch,
                                  376);
        for (const auto &p : pts) {
            if (p.phase == Phase::Generation &&
                p.operatorGroup == "Logit/Attend") {
                EXPECT_TRUE(p.memoryBound) << "batch " << batch;
                EXPECT_NEAR(p.intensity, 1.0, 0.2);
            }
        }
    }
}

TEST(Roofline, SummarizationIsComputeBound)
{
    MachineSpec machine;
    auto pts = rooflinePoints(model::gpt3_175b(), machine, 8, 376);
    for (const auto &p : pts) {
        if (p.phase == Phase::Summarization) {
            EXPECT_FALSE(p.memoryBound) << p.operatorGroup;
        }
    }
}

TEST(Roofline, BatchingRescuesWeightGemmsOnly)
{
    MachineSpec machine;
    auto small = rooflinePoints(model::gpt3_13b(), machine, 1, 376);
    auto large = rooflinePoints(model::gpt3_13b(), machine, 512, 376);
    auto find = [](const std::vector<RooflinePoint> &pts,
                   const char *group) {
        for (const auto &p : pts) {
            if (p.phase == Phase::Generation &&
                p.operatorGroup == group)
                return p;
        }
        return RooflinePoint{};
    };
    EXPECT_GT(find(large, "QKV/Proj/FFN").intensity,
              find(small, "QKV/Proj/FFN").intensity * 100);
    EXPECT_NEAR(find(large, "Logit/Attend").intensity,
                find(small, "Logit/Attend").intensity, 0.2);
}

// --- GPU utilization -----------------------------------------------------

TEST(GpuUtil, CapacitySizedProvisioning)
{
    auto u = analyzeGpuUtilization(model::opt_30b(), a100_40gb(), 64,
                                   376);
    EXPECT_GE(u.devices, 2);
    EXPECT_GT(u.capacityUtil, 0.5);
    EXPECT_LE(u.capacityUtil, 1.0);
}

TEST(GpuUtil, ComputeStarvedBelow40Percent)
{
    for (const auto &gpu : {rtx3090(), a100_40gb()}) {
        for (const auto &llm : model::figure5Models()) {
            auto u = analyzeGpuUtilization(llm, gpu, 64, 376);
            EXPECT_LT(u.computeUtil, 0.40)
                << llm.name << " on " << gpu.name;
            EXPECT_GT(u.computeUtil, 0.0);
        }
    }
}

TEST(GpuUtil, ErrorBarsBracketMean)
{
    auto u = analyzeGpuUtilization(model::gptNeoX20b(), a100_40gb(),
                                   64, 376);
    EXPECT_LE(u.computeUtilMin, u.computeUtil);
    EXPECT_GE(u.computeUtilMax, u.computeUtil);
}

// --- area ------------------------------------------------------------------

TEST(AreaModel, BreakdownSumsToOne)
{
    BankAreaBreakdown bank;
    EXPECT_NEAR(bank.total(), 1.0, 1e-9);
}

TEST(AreaModel, DualRowBufferNearPaperEstimate)
{
    auto est = dualRowBufferArea();
    // Paper: 3.11% via CACTI 7 at 22 nm.
    EXPECT_NEAR(est.overheadFraction, 0.0311, 0.005);
    EXPECT_GT(est.dualBufferBank, est.baselineBank);
}

TEST(AreaModel, OverheadScalesWithSenseAmpShare)
{
    BankAreaBreakdown fat;
    fat.senseAmps = 0.10;
    fat.cellArray = 0.786;
    auto est = dualRowBufferArea(fat);
    EXPECT_GT(est.overheadFraction, 0.09);
}

} // namespace
} // namespace neupims::analysis
