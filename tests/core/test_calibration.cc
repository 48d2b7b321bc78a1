/**
 * @file
 * Calibration-anchor tests: anchors are keyed by arbitration policy,
 * the anchor run's mem-sched statistics reach the analytic model's
 * summary, and the calibrated SBI hide-fraction surface is sane.
 */

#include <gtest/gtest.h>

#include "core/iteration_model.h"
#include "core/serving_setup.h"
#include "dram/mem_sched.h"

namespace neupims::core {
namespace {

/** Anchors are policy-distinct: the same grid point under another
 * arbitration policy is a different engine and must not reuse the
 * FR-FCFS anchor's cycles. */
TEST(CalibrationAnchors, PolicyIsPartOfTheAnchorKey)
{
    auto llm = model::gpt3_13b();
    const auto &backend = servingBackendByName("NeuPIMs+SBI");
    const int layers = llm.layersPerDevice(llm.defaultPp);

    auto dev_paws = backend.device;
    dev_paws.memSched = dram::MemSchedKind::Paws;
    AnalyticIterationModel frfcfs(backend.device, llm, llm.defaultTp,
                                  layers);
    AnalyticIterationModel paws(dev_paws, llm, llm.defaultTp, layers);
    // The bench anchor: large enough that PAWS has MEM backlog at its
    // stint boundaries and actually alternates modes.
    frfcfs.calibrate(256, 512);
    paws.calibrate(256, 512);
    ASSERT_TRUE(frfcfs.memSchedSummary().valid);
    ASSERT_TRUE(paws.memSchedSummary().valid);
    EXPECT_STREQ(frfcfs.memSchedSummary().policy.c_str(), "frfcfs");
    EXPECT_STREQ(paws.memSchedSummary().policy.c_str(), "paws");
    // FR-FCFS never defers a class; Paws switches modes.
    EXPECT_EQ(frfcfs.memSchedSummary().pimStallCycles, 0u);
    EXPECT_EQ(frfcfs.memSchedSummary().pimWasteCycles, 0u);
    EXPECT_GT(paws.memSchedSummary().modeSwitches, 0u);
}

/** Before calibrate() the analytic model has no engine run to report;
 * afterwards the anchor's scheduling stats are visible. */
TEST(CalibrationAnchors, SummaryInvalidUntilCalibrated)
{
    auto llm = model::gpt3_13b();
    const auto &backend = servingBackendByName("NeuPIMs+SBI");
    AnalyticIterationModel m(backend.device, llm, llm.defaultTp,
                             llm.layersPerDevice(llm.defaultPp));
    EXPECT_FALSE(m.memSchedSummary().valid);
    m.calibrate(96, 640);
    ASSERT_TRUE(m.memSchedSummary().valid);
    EXPECT_GT(m.memSchedSummary().memCommands, 0u);
    EXPECT_GT(m.memSchedSummary().pimCommands, 0u);
}

/** The calibrated SBI hide-fraction surface: within [0, 1], edge
 * clamped outside the measured grid, monotone along the batch axis at
 * the policy plateaus, and policy-distinct (PAWS hides more than
 * FR-FCFS at large sub-batches — mode exclusivity batches command
 * runs). */
TEST(CalibrationAnchors, HideFractionSurfaceSanity)
{
    auto dev = DeviceConfig::neuPims();
    auto paws = dev;
    paws.memSched = dram::MemSchedKind::Paws;

    for (double per_ch : {1.0, 4.0, 6.0, 8.0, 12.0, 40.0}) {
        for (double kv : {64.0, 512.0, 1024.0, 1536.0, 4096.0}) {
            double f = calibratedSbiHideFraction(dev, per_ch, kv);
            EXPECT_GE(f, 0.0);
            EXPECT_LE(f, 1.0);
        }
    }
    // Edge clamping: outside the grid equals the nearest edge.
    EXPECT_DOUBLE_EQ(calibratedSbiHideFraction(dev, 1.0, 512.0),
                     calibratedSbiHideFraction(dev, 4.0, 512.0));
    EXPECT_DOUBLE_EQ(calibratedSbiHideFraction(dev, 12.0, 4096.0),
                     calibratedSbiHideFraction(dev, 12.0, 1536.0));
    // The batch collapse: 4 requests/channel/sub-batch hides almost
    // nothing; the plateau at 12 hides much more.
    EXPECT_LT(calibratedSbiHideFraction(dev, 4.0, 1024.0), 0.1);
    EXPECT_GT(calibratedSbiHideFraction(dev, 12.0, 1024.0), 0.25);
    // Policy-distinct surfaces.
    EXPECT_GT(calibratedSbiHideFraction(paws, 12.0, 1024.0),
              calibratedSbiHideFraction(dev, 12.0, 1024.0) + 0.2);
}

} // namespace
} // namespace neupims::core
