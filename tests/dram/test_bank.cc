/**
 * @file
 * Unit tests for the dual-row-buffer bank state machine, on a
 * one-bank BankArray, and a property test of the single-buffer bank.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
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

TEST_F(BankTest, SingleBufferSidesAgreeUnderRandomLegalOps)
{
    // A single-buffer bank has one buffer, which both sides name: after
    // any legal sequence of MEM and PIM ACT, RD, WR, PRE and REF, every
    // query answers the same for both sides.
    constexpr int kBanks = 4;
    const BufferSide sides[] = {BufferSide::Mem, BufferSide::Pim};
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        Rng rng(seed);
        BankArray b(t, false, kBanks);
        Cycle now = 0;
        for (int op = 0; op < 2000; ++op) {
            now += rng.uniformInt(0, 16);
            const auto bank =
                static_cast<BankId>(rng.uniformInt(0, kBanks - 1));
            const BufferSide s = sides[rng.uniformInt(0, 1)];
            const bool open = b.openRow(bank, s) >= 0;
            switch (rng.uniformInt(0, 9)) {
              case 0:
                // REF waits until every bank may precharge.
                now = std::max(now, b.maxEarliestPrecharge());
                b.refreshAll(now);
                break;
              case 1:
              case 2:
                // PRE, to an open or a closed row (a PIM precharge
                // closes each of its kernel's banks).
                now = std::max(now, b.earliestPrecharge(bank, s));
                b.precharge(bank, s, now);
                break;
              default:
                if (!open) {
                    now = std::max(now, b.earliestActivate(bank, s));
                    b.activate(bank, s, static_cast<int>(rng.uniformInt(0, 7)),
                               now);
                } else {
                    now = std::max(now, b.earliestColumn(bank, s));
                    if (rng.uniform() < 0.5)
                        b.read(bank, s, now);
                    else
                        b.write(bank, s, now);
                }
                break;
            }
            for (BankId k = 0; k < kBanks; ++k) {
                ASSERT_EQ(b.openRow(k, BufferSide::Mem),
                          b.openRow(k, BufferSide::Pim))
                    << "seed " << seed << " op " << op << " bank " << k;
                ASSERT_EQ(b.earliestActivate(k, BufferSide::Mem),
                          b.earliestActivate(k, BufferSide::Pim))
                    << "seed " << seed << " op " << op << " bank " << k;
                ASSERT_EQ(b.earliestColumn(k, BufferSide::Mem),
                          b.earliestColumn(k, BufferSide::Pim))
                    << "seed " << seed << " op " << op << " bank " << k;
                ASSERT_EQ(b.earliestPrecharge(k, BufferSide::Mem),
                          b.earliestPrecharge(k, BufferSide::Pim))
                    << "seed " << seed << " op " << op << " bank " << k;
            }
        }
    }
}

} // namespace
} // namespace neupims::dram
