/**
 * @file
 * Unit tests for the dual-row-buffer bank state machine, on a
 * one-bank BankArray.
 */

#include <gtest/gtest.h>

#include "dram/bank.h"

namespace neupims::dram {
namespace {

class BankTest : public ::testing::Test
{
  protected:
    TimingParams t;
};

TEST_F(BankTest, StartsClosedOnBothSides)
{
    BankArray b(t, true, 1);
    EXPECT_EQ(b.openRow(0, BufferSide::Mem), -1);
    EXPECT_EQ(b.openRow(0, BufferSide::Pim), -1);
    EXPECT_EQ(b.earliestActivate(0, BufferSide::Mem), 0u);
}

TEST_F(BankTest, ActivateOpensRowAndSetsColumnTiming)
{
    BankArray b(t, true, 1);
    b.activate(0, BufferSide::Mem, 42, 100);
    EXPECT_EQ(b.openRow(0, BufferSide::Mem), 42);
    EXPECT_EQ(b.earliestColumn(0, BufferSide::Mem), 100 + t.tRCD);
    EXPECT_EQ(b.earliestPrecharge(0, BufferSide::Mem), 100 + t.tRAS);
}

TEST_F(BankTest, TrcEnforcedAcrossBothBuffers)
{
    BankArray b(t, true, 1);
    b.activate(0, BufferSide::Mem, 1, 100);
    // The shared cell array limits ACT-to-ACT even across buffers.
    EXPECT_GE(b.earliestActivate(0, BufferSide::Pim), 100 + t.tRC());
    EXPECT_GE(b.earliestActivate(0, BufferSide::Mem), 100 + t.tRC());
}

TEST_F(BankTest, DualBuffersHoldIndependentRows)
{
    BankArray b(t, true, 1);
    b.activate(0, BufferSide::Mem, 7, 0);
    b.activate(0, BufferSide::Pim, 9, t.tRC());
    EXPECT_EQ(b.openRow(0, BufferSide::Mem), 7);
    EXPECT_EQ(b.openRow(0, BufferSide::Pim), 9);
}

TEST_F(BankTest, SingleBufferAliasesRows)
{
    BankArray b(t, false, 1);
    b.activate(0, BufferSide::Mem, 7, 0);
    b.activate(0, BufferSide::Pim, 9, t.tRC());
    // Baseline bank: the PIM activation evicted the MEM row.
    EXPECT_EQ(b.openRow(0, BufferSide::Mem), 9);
    EXPECT_EQ(b.openRow(0, BufferSide::Pim), 9);
}

TEST_F(BankTest, PrechargeClosesOnlyThatSideWhenDual)
{
    BankArray b(t, true, 1);
    b.activate(0, BufferSide::Mem, 7, 0);
    b.activate(0, BufferSide::Pim, 9, t.tRC());
    Cycle pre = b.earliestPrecharge(0, BufferSide::Pim);
    b.precharge(0, BufferSide::Pim, pre);
    EXPECT_EQ(b.openRow(0, BufferSide::Pim), -1);
    EXPECT_EQ(b.openRow(0, BufferSide::Mem), 7);
}

TEST_F(BankTest, PrechargeClosesBothWhenSingle)
{
    BankArray b(t, false, 1);
    b.activate(0, BufferSide::Mem, 7, 0);
    Cycle pre = b.earliestPrecharge(0, BufferSide::Mem);
    b.precharge(0, BufferSide::Mem, pre);
    EXPECT_EQ(b.openRow(0, BufferSide::Mem), -1);
    EXPECT_EQ(b.openRow(0, BufferSide::Pim), -1);
}

TEST_F(BankTest, WriteExtendsPrechargeByWriteRecovery)
{
    BankArray b(t, true, 1);
    b.activate(0, BufferSide::Mem, 1, 0);
    Cycle wr_at = b.earliestColumn(0, BufferSide::Mem);
    b.write(0, BufferSide::Mem, wr_at);
    EXPECT_EQ(b.earliestPrecharge(0, BufferSide::Mem),
              wr_at + t.tCWL + t.tBL + t.tWR);
}

TEST_F(BankTest, ReadExtendsPrechargeByRtp)
{
    BankArray b(t, true, 1);
    b.activate(0, BufferSide::Mem, 1, 0);
    // A read near the end of tRAS pushes precharge readiness.
    Cycle rd_at = t.tRAS; // later than tRCD
    b.read(0, BufferSide::Mem, rd_at);
    EXPECT_EQ(b.earliestPrecharge(0, BufferSide::Mem), rd_at + t.tRTP);
}

TEST_F(BankTest, RefreshClosesRowsAndBlocksBank)
{
    BankArray b(t, true, 1);
    b.activate(0, BufferSide::Mem, 5, 0);
    b.activate(0, BufferSide::Pim, 6, t.tRC());
    Cycle when = 500;
    b.refreshAll(when);
    EXPECT_EQ(b.openRow(0, BufferSide::Mem), -1);
    EXPECT_EQ(b.openRow(0, BufferSide::Pim), -1);
    EXPECT_GE(b.earliestActivate(0, BufferSide::Mem), when + t.tRFC);
    EXPECT_GE(b.earliestActivate(0, BufferSide::Pim), when + t.tRFC);
}

TEST_F(BankTest, PrechargeAfterActivateWaitsForRas)
{
    BankArray b(t, true, 1);
    b.activate(0, BufferSide::Mem, 3, 1000);
    EXPECT_EQ(b.earliestPrecharge(0, BufferSide::Mem), 1000 + t.tRAS);
    b.precharge(0, BufferSide::Mem, 1000 + t.tRAS);
    // Re-activation must wait tRP after the precharge and tRC after
    // the previous activate.
    EXPECT_GE(b.earliestActivate(0, BufferSide::Mem),
              1000 + t.tRAS + t.tRP);
}

} // namespace
} // namespace neupims::dram
