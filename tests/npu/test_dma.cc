/**
 * @file
 * Integration tests of the DMA stream engine against the HBM stack:
 * traffic spreading, completion semantics and byte accounting.
 */

#include <gtest/gtest.h>

#include <vector>

#include "npu/dma.h"

namespace neupims::npu {
namespace {

class DmaTest : public ::testing::Test
{
  protected:
    DmaTest() : hbm(eq, cfg), dma(eq, hbm) {}

    /** Stream @p bytes on channel @p ch alone. */
    void
    streamOn(ChannelId ch, Bytes bytes, bool write, int bursts_per_row,
             DmaEngine::Callback on_done = [](Cycle) {})
    {
        std::vector<Bytes> per_channel(hbm.numChannels(), 0);
        per_channel[ch] = bytes;
        dma.streamPerChannel(per_channel, write, bursts_per_row,
                             std::move(on_done));
    }

    EventQueue eq;
    dram::MemConfig cfg; // defaults: 32 channels, dual row buffers
    dram::HbmStack hbm;
    DmaEngine dma;
};

TEST_F(DmaTest, StreamSpreadsAcrossAllChannels)
{
    const Bytes total = 1_MiB;
    Cycle done = 0;
    dma.streamAllChannels(total, false, 16,
                          [&](Cycle c) { done = c; });
    eq.run();
    EXPECT_GT(done, 0u);
    EXPECT_EQ(dma.issuedBytes(), total);
    // Every channel moved an equal share (1 MiB divides evenly).
    for (ChannelId ch = 0; ch < hbm.numChannels(); ++ch) {
        EXPECT_EQ(hbm.controller(ch).channel().dataBusBytes(),
                  total / hbm.numChannels());
    }
}

TEST_F(DmaTest, ZeroByteStreamCompletesImmediately)
{
    bool fired = false;
    dma.streamAllChannels(0, false, 16, [&](Cycle) { fired = true; });
    eq.run();
    EXPECT_TRUE(fired);
}

TEST_F(DmaTest, SingleChannelStreamTouchesOnlyThatChannel)
{
    Cycle done = 0;
    streamOn(5, 64_KiB, false, 16, [&](Cycle c) { done = c; });
    eq.run();
    EXPECT_GT(done, 0u);
    for (ChannelId ch = 0; ch < hbm.numChannels(); ++ch) {
        EXPECT_EQ(hbm.controller(ch).channel().dataBusBytes(),
                  ch == 5 ? 64_KiB : 0u);
    }
}

TEST_F(DmaTest, PerChannelAmountsHonored)
{
    std::vector<Bytes> bytes(hbm.numChannels(), 0);
    bytes[0] = 4096;
    bytes[7] = 8192;
    Cycle done = 0;
    dma.streamPerChannel(bytes, true, 16, [&](Cycle c) { done = c; });
    eq.run();
    EXPECT_GT(done, 0u);
    EXPECT_EQ(hbm.controller(0).channel().dataBusBytes(), 4096u);
    EXPECT_EQ(hbm.controller(7).channel().dataBusBytes(), 8192u);
    EXPECT_EQ(hbm.controller(1).channel().dataBusBytes(), 0u);
}

TEST_F(DmaTest, WritesIssueWriteCommands)
{
    streamOn(0, 16_KiB, true, 16);
    eq.run();
    const auto &counts = hbm.controller(0).channel().commandCounts();
    EXPECT_GT(counts.count(dram::CommandType::Wr), 0u);
    EXPECT_EQ(counts.count(dram::CommandType::Rd), 0u);
}

TEST_F(DmaTest, ShortBurstsRaiseActivationShare)
{
    // The GEMV-style short-burst stream needs ~8x the activations of
    // a full-row stream for the same bytes.
    streamOn(1, 64_KiB, false, 16);
    streamOn(2, 64_KiB, false, 2);
    eq.run();
    auto full = hbm.controller(1).channel().commandCounts().count(
        dram::CommandType::Act);
    auto strided = hbm.controller(2).channel().commandCounts().count(
        dram::CommandType::Act);
    EXPECT_EQ(strided, full * 8);
}

TEST_F(DmaTest, ShortBurstsFinishLaterForSameBytes)
{
    Cycle full_done = 0, strided_done = 0;
    streamOn(1, 256_KiB, false, 16, [&](Cycle c) { full_done = c; });
    streamOn(2, 256_KiB, false, 2, [&](Cycle c) { strided_done = c; });
    eq.run();
    // Same bytes, same independent channels: the strided stream is
    // activation-bound and clearly slower (why NPU-side attention
    // under-uses bandwidth, §2.1).
    EXPECT_GT(strided_done, full_done * 2);
}

TEST_F(DmaTest, BackToBackStreamsBothComplete)
{
    int fired = 0;
    dma.streamAllChannels(256_KiB, false, 16, [&](Cycle) { ++fired; });
    dma.streamAllChannels(256_KiB, false, 16, [&](Cycle) { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(dma.issuedBytes(), 512_KiB);
}

TEST_F(DmaTest, RemainderBytesRideChannelZero)
{
    // A stream that is not a multiple of the channel count still
    // delivers every byte.
    const Bytes total = 32 * 1024 + 100;
    dma.streamAllChannels(total, false, 16, [](Cycle) {});
    eq.run();
    EXPECT_EQ(dma.issuedBytes(), total);
    Bytes sum = 0;
    for (ChannelId ch = 0; ch < hbm.numChannels(); ++ch)
        sum += hbm.controller(ch).channel().dataBusBytes();
    // The data bus moves whole 64 B bursts, so the tail rounds up.
    EXPECT_GE(sum, total);
    EXPECT_LT(sum - total, cfg.org.burstBytes);
}

TEST_F(DmaTest, BackToBackStreamsContinueTheRowCursor)
{
    // 3 rows open row 0 of banks 0-2; the next stream continues on
    // banks 3-31, then wraps to row 1 of bank 0: one conflict, no hit.
    // A cursor reset would re-hit the open rows of banks 0-2.
    const Bytes row = 2 * cfg.org.burstBytes;
    streamOn(5, 3 * row, false, 2);
    streamOn(5, 30 * row, false, 2);
    eq.run();
    const auto &s = hbm.controller(5).memSchedStats();
    EXPECT_EQ(s.rowHits, 0u);
    EXPECT_EQ(s.rowMisses, 32u);
    EXPECT_EQ(s.rowConflicts, 1u);
    EXPECT_EQ(hbm.controller(5).completedMemJobs(), 33u);
}

TEST_F(DmaTest, SubBurstTailRowRidesChannelZero)
{
    // One 16-burst row per channel; channel 0 adds a tail row of the
    // remaining 100 bytes, rounded up to two bursts.
    const Bytes total = 32 * cfg.org.pageBytes + 100;
    dma.streamAllChannels(total, false, 16, [](Cycle) {});
    eq.run();
    const auto &ch0 = hbm.controller(0).channel().commandCounts();
    EXPECT_EQ(ch0.count(dram::CommandType::Act), 2u);
    EXPECT_EQ(ch0.count(dram::CommandType::Rd), 18u);
    EXPECT_EQ(hbm.controller(0).completedMemJobs(), 2u);
    for (ChannelId ch = 1; ch < hbm.numChannels(); ++ch) {
        const auto &c = hbm.controller(ch).channel().commandCounts();
        EXPECT_EQ(c.count(dram::CommandType::Rd), 16u) << "channel " << ch;
    }
    EXPECT_EQ(dma.issuedBytes(), total);
}

TEST_F(DmaTest, OneControllerCompletionPerChannelPerStream)
{
    int fired = 0;
    std::vector<Bytes> bytes(hbm.numChannels(), 0);
    bytes[2] = 64_KiB;
    bytes[9] = 4_KiB;
    dma.streamAllChannels(256_KiB, false, 2, [&](Cycle) { ++fired; });
    dma.streamPerChannel(bytes, true, 16, [&](Cycle) { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 2);
    for (ChannelId ch = 0; ch < hbm.numChannels(); ++ch) {
        const auto &mc = hbm.controller(ch);
        const std::uint64_t streams = bytes[ch] > 0 ? 2 : 1;
        EXPECT_EQ(mc.memCompletions(), streams) << "channel " << ch;
        // 8 KiB of 128 B rows, plus 1 KiB rows of the second stream.
        EXPECT_EQ(mc.completedMemJobs(), 64 + bytes[ch] / 1_KiB)
            << "channel " << ch;
    }
}

TEST_F(DmaTest, MemOnlyStreamRunsAsEpochs)
{
    // With no PIM work anywhere, the stack simulates the stream's
    // wake-ups in epochs instead of one event per DRAM command, and an
    // epoch runs to the first possible stream completion (DESIGN.md
    // §3.4): the 32 channels' kicks and the done event are all that
    // execute (33 events for 72,704 commands), and the stream's 2,512
    // cycles take 2 epochs, where epochs of at most a horizon took 9.
    dma.streamAllChannels(4_MiB, false, 16, [](Cycle) {});
    eq.run();
    std::uint64_t commands = 0;
    for (std::uint64_t n : hbm.totalCommandCounts().counts)
        commands += n;
    EXPECT_GT(commands, 60'000u);
    EXPECT_LT(1000 * eq.executedEvents(), commands);
    EXPECT_LE(hbm.epochs(), 4u);
}

TEST_F(DmaTest, MemStreamBesidePimRunsAsEpochs)
{
    // An 8 MiB stream of 16-burst rows beside one 512-tile composite
    // kernel with PIM_HEADER on every channel, under both policies:
    // epochs run beside the kernels (DESIGN.md §3.4), so the kicks and
    // the done event are all that execute, 33 events for about 147,000
    // commands in 4 (frfcfs) and 6 (paws) epochs. While any kernel was
    // queued or running, the stack used to decline every epoch: 5,793
    // and 149,569 events, the paws stack in no epoch at all. The counts
    // are exact, so every build checks them.
    auto besidePim = [](EventQueue &q, dram::HbmStack &stack,
                        DmaEngine &engine) {
        engine.streamAllChannels(8_MiB, false, 16, [](Cycle) {});
        for (ChannelId ch = 0; ch < stack.numChannels(); ++ch) {
            dram::PimJob job;
            job.rowTiles = 512;
            stack.controller(ch).enqueuePim(std::move(job));
        }
        q.run();
        std::uint64_t commands = 0;
        for (std::uint64_t n : stack.totalCommandCounts().counts)
            commands += n;
        EXPECT_GT(commands, 140'000u);
        EXPECT_LT(1000 * q.executedEvents(), commands);
        EXPECT_LE(stack.epochs(), 8u);
    };
    besidePim(eq, hbm, dma);
    EventQueue paws_eq;
    dram::MemConfig paws_cfg;
    paws_cfg.ctrl.sched = dram::MemSchedKind::Paws;
    dram::HbmStack paws_hbm(paws_eq, paws_cfg);
    DmaEngine paws_dma(paws_eq, paws_hbm);
    besidePim(paws_eq, paws_hbm, paws_dma);
}

TEST_F(DmaTest, MemOnlyStreamAdvancesWholePeriods)
{
    // A steady MEM-only stream repeats its controller state every group
    // of rows, so epochs advance whole periods in closed form (DESIGN.md
    // §3.6) instead of running the arbitration loop about three times
    // a row: 1.02 decisions a row on this stream, 73% of its rows
    // advanced. The counts are exact, so every build checks them.
    dma.streamAllChannels(16_MiB, false, 16, [](Cycle) {});
    eq.run();
    std::uint64_t rows = 0, decisions = 0, advanced = 0;
    for (ChannelId ch = 0; ch < hbm.numChannels(); ++ch) {
        rows += hbm.controller(ch).completedMemJobs();
        decisions += hbm.controller(ch).decisions();
        advanced += hbm.controller(ch).rowsAdvanced();
    }
    EXPECT_EQ(rows, 16_MiB / 1_KiB);
    EXPECT_GT(advanced, rows / 2);
    EXPECT_LE(decisions, rows * 6 / 5);
}

} // namespace
} // namespace neupims::npu
