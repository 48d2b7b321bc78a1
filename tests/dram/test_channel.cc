/**
 * @file
 * Unit tests for channel-level timing: bus arbitration, tRRD/tFAW
 * windows, refresh bookkeeping and PIM activation groups.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "dram/channel.h"

namespace neupims::dram {
namespace {

/** What a train's bursts reported, one by one. */
struct Bursts
{
    std::vector<Cycle> candidates;
    std::vector<Cycle> dataEnds;
};

/** The reference for Channel::issueColumnTrain: up to @p n bursts, each
 * through issueColumn() at its earliest candidate, stopping before the
 * first that reaches @p until. */
Bursts
issueBurstByBurst(Channel &ch, BankId bank, bool write, int n, Cycle until)
{
    Bursts r;
    for (int i = 0; i < n; ++i) {
        const Cycle cand = ch.earliestColumn(bank, 0);
        if (cand >= until)
            break;
        r.candidates.push_back(cand);
        r.dataEnds.push_back(ch.issueColumn(bank, write, cand).second);
    }
    return r;
}

class ChannelTest : public ::testing::Test
{
  protected:
    ChannelTest() : ch(t, org, true) {}

    TimingParams t;
    Organization org;
    Channel ch;
};

TEST_F(ChannelTest, ActivateRespectsTrrdAcrossBanks)
{
    Cycle a0 = ch.issueActivate(0, 0, 0);
    Cycle a1 = ch.issueActivate(8, 0, 0); // other group
    EXPECT_GE(a1, a0 + t.tRRD_S);
    Cycle a2 = ch.issueActivate(9, 0, 0); // same group as 8
    EXPECT_GE(a2, a1 + t.tRRD_L);
}

TEST_F(ChannelTest, FourActivateWindowEnforced)
{
    std::vector<Cycle> acts;
    // Use banks from different groups so only tRRD_S and tFAW bind.
    for (int i = 0; i < 5; ++i)
        acts.push_back(
            ch.issueActivate(i * org.banksPerGroup, 0, 0));
    // The fifth activation must leave the first's tFAW window.
    EXPECT_GE(acts[4], acts[0] + t.tFAW);
}

TEST_F(ChannelTest, CaBusSerializesCommands)
{
    Cycle a0 = ch.issueActivate(0, 0, 0);
    // A command to a totally different bank still needs a C/A slot.
    Cycle a1 = ch.issueActivate(16, 0, 0);
    EXPECT_GE(a1, a0 + t.caMemCmd);
}

TEST_F(ChannelTest, ReadDataLandsTclAfterCommand)
{
    ch.issueActivate(0, 0, 0);
    auto [cmd, data_end] = ch.issueColumn(0, false, 0);
    EXPECT_EQ(data_end, cmd + t.tCL + t.tBL);
}

TEST_F(ChannelTest, BackToBackReadsPipelineOnDataBus)
{
    ch.issueActivate(0, 0, 0);
    auto [c0, e0] = ch.issueColumn(0, false, 0);
    auto [c1, e1] = ch.issueColumn(0, false, 0);
    (void)c0;
    (void)c1;
    // Data bus: consecutive bursts are contiguous, tBL apart.
    EXPECT_EQ(e1, e0 + t.tBL);
}

TEST_F(ChannelTest, DataBusBytesAccumulate)
{
    ch.issueActivate(0, 0, 0);
    ch.issueColumn(0, false, 0);
    ch.issueColumn(0, false, 0);
    EXPECT_EQ(ch.dataBusBytes(), 2 * org.burstBytes);
}

TEST_F(ChannelTest, ColumnTrainMatchesBurstByBurst)
{
    TimingParams slow_bus = t;
    slow_bus.tBL = 2;
    TimingParams slow_ca = t;
    slow_ca.caMemCmd = 2;
    Rng rng(23);
    int pushed = 0;
    for (const TimingParams *tp : {&t, &slow_bus, &slow_ca}) {
        for (bool dual : {true, false}) {
            for (int trial = 0; trial < 24; ++trial) {
                Channel base(*tp, org, dual);
                const auto bank = static_cast<BankId>(rng.uniformInt(0, 31));
                const bool write = rng.uniform() < 0.5;
                const auto n = static_cast<int>(rng.uniformInt(1, 16));
                base.issueActivate(bank, 3, rng.uniformInt(0, 40));
                // A burst the other way first: a write train right
                // after a read waits for the data bus.
                if (rng.uniform() < 0.5)
                    base.issueColumn(bank, !write, 0);
                // So does one behind a reservation (a PIM result).
                if (rng.uniform() < 0.25)
                    base.reserveDataBus(
                        base.earliestColumn(bank, 0) + tp->tCL,
                        static_cast<int>(rng.uniformInt(1, 4)));
                Channel probe = base;
                const Bursts all =
                    issueBurstByBurst(probe, bank, write, n, kCycleMax);
                const Cycle lat = write ? tp->tCWL : tp->tCL;
                if (all.dataEnds[0] - tp->tBL - lat > all.candidates[0])
                    ++pushed;
                // until at every candidate of the train, one past it,
                // and nowhere.
                std::vector<Cycle> untils = {kCycleMax};
                for (Cycle c : all.candidates) {
                    untils.push_back(c);
                    untils.push_back(c + 1);
                }
                for (Cycle until : untils) {
                    Channel train = base;
                    Channel ref = base;
                    const Channel::ColumnTrain tr =
                        train.issueColumnTrain(bank, write, n, until);
                    const Bursts bb =
                        issueBurstByBurst(ref, bank, write, n, until);
                    ASSERT_EQ(static_cast<std::size_t>(tr.issued),
                              bb.candidates.size())
                        << "until " << until;
                    // After the first, each burst is step after the
                    // one before.
                    for (int i = 0; i < tr.issued; ++i) {
                        const auto after = static_cast<Cycle>(i);
                        const auto before =
                            static_cast<Cycle>(tr.issued - 1 - i);
                        EXPECT_EQ(i == 0 ? tr.first
                                         : tr.next + (after - 1) * tr.step,
                                  bb.candidates[i]);
                        EXPECT_EQ(tr.dataEnd - before * tr.step,
                                  bb.dataEnds[i]);
                    }
                    EXPECT_EQ(train.earliestCa(0), ref.earliestCa(0));
                    EXPECT_EQ(train.dataBusBytes(), ref.dataBusBytes());
                    EXPECT_EQ(train.caBusyCycles(), ref.caBusyCycles());
                    for (int i = 0; i < kNumCommandTypes; ++i)
                        EXPECT_EQ(train.commandCounts().counts[i],
                                  ref.commandCounts().counts[i]);
                    for (BufferSide side : {BufferSide::Mem, BufferSide::Pim})
                        EXPECT_EQ(train.banks().earliestPrecharge(bank, side),
                                  ref.banks().earliestPrecharge(bank, side));
                    // The next burst finds the same buses.
                    EXPECT_EQ(train.issueColumn(bank, !write, 0),
                              ref.issueColumn(bank, !write, 0));
                    const Cycle busy_end = ref.earliestCa(0) + tp->tCL + 8;
                    for (Cycle from = 0; from < busy_end; from += 3)
                        for (Cycle to = from + 1; to <= busy_end; to += 2)
                            EXPECT_EQ(train.dataBusUtilization(from, to),
                                      ref.dataBusUtilization(from, to))
                                << "[" << from << ", " << to << ")";
                }
            }
        }
    }
    EXPECT_GT(pushed, 10);
}

TEST_F(ChannelTest, CommandCountsRecorded)
{
    ch.issueActivate(0, 0, 0);
    ch.issueColumn(0, false, 0);
    ch.issueColumn(0, true, 0);
    ch.issuePrecharge(0, 0);
    const auto &c = ch.commandCounts();
    EXPECT_EQ(c.count(CommandType::Act), 1u);
    EXPECT_EQ(c.count(CommandType::Rd), 1u);
    EXPECT_EQ(c.count(CommandType::Wr), 1u);
    EXPECT_EQ(c.count(CommandType::Pre), 1u);
}

TEST_F(ChannelTest, RefreshClosesAllBanksAndReschedules)
{
    ch.issueActivate(0, 3, 0);
    Cycle due_before = ch.nextRefreshDue();
    Cycle done = ch.issueRefresh(due_before);
    EXPECT_GE(done, due_before + t.tRFC);
    EXPECT_EQ(ch.nextRefreshDue(), due_before + t.tREFI);
    EXPECT_EQ(ch.banks().openRow(0, BufferSide::Mem), -1);
    // Bank is blocked for tRFC.
    EXPECT_GE(ch.earliestActivate(0, 0), done);
}

TEST_F(ChannelTest, PostponeRefreshHasBudgetOfEight)
{
    Cycle due = ch.nextRefreshDue();
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(ch.postponeRefresh());
    EXPECT_FALSE(ch.postponeRefresh());
    EXPECT_EQ(ch.nextRefreshDue(), due + 8 * t.tREFI);
    // After the catch-up refresh the schedule realigns.
    ch.issueRefresh(ch.nextRefreshDue());
    EXPECT_EQ(ch.nextRefreshDue(), due + 8 * t.tREFI + 9 * t.tREFI);
}

TEST_F(ChannelTest, PimActivateGroupOpensFourRows)
{
    Cycle act = ch.issuePimActivateGroup(0, 4, /*row=*/5, 0, true);
    for (int b = 0; b < 4; ++b)
        EXPECT_EQ(ch.banks().openRow(b, BufferSide::Pim), 5);
    EXPECT_EQ(ch.commandCounts().count(CommandType::PimActivate), 1u);
    // Subsequent group targets another bank group: tRRD_S applies.
    Cycle act2 = ch.issuePimActivateGroup(4, 4, 5, 0, true);
    EXPECT_GE(act2, act + t.tRRD_S);
    // A group back in bank group 0 respects the long spacing.
    Cycle act3 = ch.issuePimActivateGroup(0, 4, 6, act + t.tRC(), true);
    EXPECT_GE(act3, act + t.tRC());
}

TEST_F(ChannelTest, PimActivateGroupWithoutCaIsFree)
{
    Cycle before_ca = ch.earliestCa(0);
    ch.issuePimActivateGroup(0, 4, 0, 0, false);
    EXPECT_EQ(ch.earliestCa(0), before_ca); // no C/A slot consumed
    EXPECT_EQ(ch.commandCounts().count(CommandType::PimActivate), 0u);
}

TEST_F(ChannelTest, PimCaCommandsAreWiderThanMemCommands)
{
    Cycle p0 = ch.issuePimCaCommand(CommandType::PimHeader, 0);
    Cycle a0 = ch.issueActivate(0, 0, 0);
    EXPECT_GE(a0, p0 + t.caPimCmd);
}

TEST_F(ChannelTest, ReserveDataBusIsContiguous)
{
    auto [s0, e0] = ch.reserveDataBus(100, 4);
    EXPECT_EQ(s0, 100u);
    EXPECT_EQ(e0, 100 + 4 * t.tBL);
    auto [s1, e1] = ch.reserveDataBus(0, 2);
    EXPECT_EQ(s1, e0); // may not overlap the earlier reservation
    EXPECT_EQ(e1, e0 + 2 * t.tBL);
}

TEST_F(ChannelTest, DataBusUtilizationClipsToTheWindow)
{
    const Cycle b = t.tBL;
    ch.reserveDataBus(10 * b, 4); // [10b, 14b)
    ch.reserveDataBus(0, 2);      // back to back: [14b, 16b)
    ch.reserveDataBus(20 * b, 4); // after a gap: [20b, 24b)
    // The back-to-back pair is one busy span, clipped on both sides.
    EXPECT_DOUBLE_EQ(ch.dataBusUtilization(10 * b, 16 * b), 1.0);
    EXPECT_DOUBLE_EQ(ch.dataBusUtilization(11 * b, 15 * b), 1.0);
    // Bursts straddling the window's start and end count only their
    // part inside it: [12b, 16b) and [20b, 22b) of [12b, 22b).
    EXPECT_DOUBLE_EQ(ch.dataBusUtilization(12 * b, 22 * b), 0.6);
    // Gaps are idle.
    EXPECT_DOUBLE_EQ(ch.dataBusUtilization(16 * b, 20 * b), 0.0);
    EXPECT_DOUBLE_EQ(ch.dataBusUtilization(0, 30 * b), 10.0 / 30.0);
}

TEST_F(ChannelTest, DualRowBufferAllowsMemReadDuringPimOpenRow)
{
    // Open a PIM row, then a MEM row on the same bank: with dual
    // buffers both stay open (the core NeuPIMs mechanism).
    Cycle pim_act = ch.issuePimActivateGroup(0, 4, 1, 0, true);
    Cycle mem_act = ch.issueActivate(0, 2, pim_act + t.tRC());
    EXPECT_EQ(ch.banks().openRow(0, BufferSide::Pim), 1);
    EXPECT_EQ(ch.banks().openRow(0, BufferSide::Mem), 2);
    auto [cmd, end] = ch.issueColumn(0, false, mem_act);
    (void)cmd;
    EXPECT_GT(end, 0u);
    EXPECT_EQ(ch.banks().openRow(0, BufferSide::Pim), 1); // still open
}

TEST_F(ChannelTest, SingleRowBufferEvictsMemRowOnPimActivate)
{
    Channel blocked(t, org, false);
    blocked.issueActivate(0, 2, 0);
    EXPECT_EQ(blocked.banks().openRow(0, BufferSide::Mem), 2);
    blocked.issuePimActivateGroup(0, 4, 1, 10'000, true);
    // Baseline bank: PIM activation clobbered the MEM row.
    EXPECT_EQ(blocked.banks().openRow(0, BufferSide::Mem), 1);
}

} // namespace
} // namespace neupims::dram
