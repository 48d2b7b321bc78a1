/**
 * @file
 * Unit tests for the HBM stack aggregates and command-count helpers.
 */

#include <gtest/gtest.h>

#include "dram/hbm.h"

namespace neupims::dram {
namespace {

class HbmTest : public ::testing::Test
{
  protected:
    HbmTest() : hbm(eq, cfg) {}

    EventQueue eq;
    MemConfig cfg;
    HbmStack hbm;
};

TEST_F(HbmTest, BuildsTable2Organization)
{
    EXPECT_EQ(hbm.numChannels(), 32);
    EXPECT_EQ(hbm.config().org.banksPerChannel, 32);
    EXPECT_TRUE(hbm.idle());
    EXPECT_EQ(hbm.totalDataBusBytes(), 0u);
}

TEST_F(HbmTest, AggregatesAcrossChannels)
{
    for (ChannelId ch : {0, 5, 31}) {
        MemJob job;
        job.bank = 0;
        job.row = 0;
        job.bursts = 4;
        hbm.controller(ch).enqueueMem(std::move(job));
    }
    eq.run();
    EXPECT_TRUE(hbm.idle());
    EXPECT_EQ(hbm.totalDataBusBytes(), 3u * 4 * 64);
    auto counts = hbm.totalCommandCounts();
    EXPECT_EQ(counts.count(CommandType::Act), 3u);
    EXPECT_EQ(counts.count(CommandType::Rd), 12u);
}

TEST_F(HbmTest, IdleReflectsAnyBusyChannel)
{
    MemJob job;
    job.bank = 0;
    job.row = 0;
    job.bursts = 1;
    hbm.controller(17).enqueueMem(std::move(job));
    EXPECT_FALSE(hbm.idle());
    eq.run();
    EXPECT_TRUE(hbm.idle());
}

TEST_F(HbmTest, PimUtilizationUsesPowerBudgetCapacity)
{
    PimJob job;
    job.rowTiles = 64;
    job.banksUsed = cfg.timing.pimParallelBanks;
    job.gwrites = 1;
    job.resultBursts = 2;
    Cycle done = 0;
    job.onComplete = [&](Cycle c) { done = c; };
    hbm.controller(0).enqueuePim(std::move(job));
    eq.run();
    ASSERT_GT(done, 0u);
    // The executor's PIM utilization is these busy bank-cycles over
    // the window times this capacity.
    EXPECT_EQ(hbm.totalPimBankBusyCycles(),
              64u * cfg.timing.pimComputePerRow);
    EXPECT_EQ(hbm.pimCapacityBanks(),
              32.0 * cfg.timing.pimParallelBanks);
}

TEST_F(HbmTest, ChannelActivitySnapshotsState)
{
    MemJob job;
    job.bank = 1;
    job.row = 2;
    job.bursts = 2;
    job.write = true;
    hbm.controller(3).enqueueMem(std::move(job));
    eq.run();
    auto act = hbm.channelActivity(3, 1000);
    EXPECT_EQ(act.windowCycles, 1000u);
    EXPECT_EQ(act.counts.count(CommandType::Wr), 2u);
    EXPECT_TRUE(act.dualRowBuffers);
    auto idle = hbm.channelActivity(4, 1000);
    EXPECT_EQ(idle.counts.totalMem(), 0u);
}

TEST(CommandCounts, ClassSumsAreConsistent)
{
    CommandCounts c;
    c.record(CommandType::Act);
    c.record(CommandType::Rd);
    c.record(CommandType::PimGemv);
    c.record(CommandType::PimGwrite);
    c.record(CommandType::Ref);
    EXPECT_EQ(c.totalMem(), 3u);
    EXPECT_EQ(c.totalPim(), 2u);
    EXPECT_TRUE(isPimCommand(CommandType::PimPrecharge));
    EXPECT_FALSE(isPimCommand(CommandType::Pre));
    EXPECT_EQ(commandName(CommandType::PimGemv), "PIM_GEMV");
}

TEST_F(HbmTest, DataBusUtilizationWindowed)
{
    MemJob job;
    job.bank = 0;
    job.row = 0;
    job.bursts = 16;
    Cycle done = 0;
    job.onComplete = [&](Cycle c) { done = c; };
    hbm.controller(0).enqueueMem(std::move(job));
    eq.run();
    double util = hbm.dataBusUtilization(0, done);
    // One channel of 32 busy for 16 of ~45 cycles.
    EXPECT_GT(util, 0.0);
    EXPECT_LT(util, 1.0 / 32.0);
}

} // namespace
} // namespace neupims::dram
