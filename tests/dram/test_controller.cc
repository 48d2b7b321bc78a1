/**
 * @file
 * Unit and integration tests for the memory controller: queue
 * processing, blocked vs concurrent modes, composite vs fine-grained
 * PIM kernels, refresh interplay and command-traffic accounting.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dram/controller.h"

namespace neupims::dram {
namespace {

struct ControllerFixture
{
    EventQueue eq;
    TimingParams t;
    Organization org;

    std::unique_ptr<MemoryController>
    make(bool dual, Cycle horizon = 256)
    {
        auto cfg = ControllerConfig::make(dual);
        cfg.horizon = horizon;
        return std::make_unique<MemoryController>(eq, t, org, cfg);
    }
};

class ControllerTest : public ::testing::Test, public ControllerFixture
{};

TEST_F(ControllerTest, SingleReadCompletes)
{
    auto mc = make(true);
    Cycle done = 0;
    MemJob job;
    job.bank = 0;
    job.row = 0;
    job.bursts = 4;
    job.onComplete = [&](Cycle c) { done = c; };
    mc->enqueueMem(std::move(job));
    eq.run();
    EXPECT_TRUE(mc->idle());
    // ACT + tRCD + tCL + 4 bursts is the minimum possible.
    EXPECT_GE(done, t.tRCD + t.tCL + 4 * t.tBL);
    EXPECT_EQ(mc->completedMemJobs(), 1u);
}

TEST_F(ControllerTest, StreamAcrossBanksPipelines)
{
    auto mc = make(true);
    const int rows = 64;
    const int bursts = 16;
    Cycle last = 0;
    int completed = 0;
    for (int i = 0; i < rows; ++i) {
        MemJob job;
        job.bank = i % org.banksPerChannel;
        job.row = i / org.banksPerChannel;
        job.bursts = bursts;
        job.onComplete = [&](Cycle c) {
            last = std::max(last, c);
            ++completed;
        };
        mc->enqueueMem(std::move(job));
    }
    eq.run();
    EXPECT_EQ(completed, rows);
    // With bank pipelining the stream should approach data-bus limits:
    // 64 rows x 16 bursts x tBL cycles of pure data, allow 40% slack
    // for activation ramp-up.
    Cycle ideal = rows * bursts * t.tBL;
    EXPECT_LT(last, ideal * 14 / 10);
}

TEST_F(ControllerTest, SameBankRowsSerializeOnTrc)
{
    auto mc = make(true);
    std::vector<Cycle> done;
    for (int i = 0; i < 3; ++i) {
        MemJob job;
        job.bank = 0;
        job.row = i;
        job.bursts = 1;
        job.onComplete = [&](Cycle c) { done.push_back(c); };
        mc->enqueueMem(std::move(job));
    }
    eq.run();
    ASSERT_EQ(done.size(), 3u);
    // Row misses to one bank can't beat the row cycle time.
    EXPECT_GE(done[1], done[0] + t.tRP);
    EXPECT_GE(done[2], done[1] + t.tRP);
}

TEST_F(ControllerTest, RowHitSkipsActivation)
{
    auto mc = make(true);
    std::vector<Cycle> done;
    for (int i = 0; i < 2; ++i) {
        MemJob job;
        job.bank = 0;
        job.row = 7; // same row twice -> second is a row hit
        job.bursts = 1;
        job.onComplete = [&](Cycle c) { done.push_back(c); };
        mc->enqueueMem(std::move(job));
    }
    eq.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_LE(done[1], done[0] + 2 * t.tBL + t.caMemCmd);
    EXPECT_EQ(mc->channel().commandCounts().count(CommandType::Act), 1u);
}

TEST_F(ControllerTest, CompositePimKernelCompletes)
{
    auto mc = make(true);
    Cycle done = 0;
    PimJob job;
    job.rowTiles = 64; // two rounds over 32 banks
    job.banksUsed = 32;
    job.gwrites = 2;
    job.resultBursts = 4;
    job.composite = true;
    job.header = true;
    job.onComplete = [&](Cycle c) { done = c; };
    mc->enqueuePim(std::move(job));
    eq.run();
    EXPECT_GT(done, 0u);
    EXPECT_TRUE(mc->idle());
    EXPECT_EQ(mc->completedPimJobs(), 1u);
    const auto &counts = mc->channel().commandCounts();
    EXPECT_EQ(counts.count(CommandType::PimHeader), 1u);
    EXPECT_EQ(counts.count(CommandType::PimGwrite), 2u);
    EXPECT_EQ(counts.count(CommandType::PimGemv), 2u); // one per round
    EXPECT_EQ(counts.count(CommandType::PimDotProduct), 0u);
    EXPECT_EQ(counts.count(CommandType::PimPrecharge), 1u);
}

TEST_F(ControllerTest, FineGrainedKernelIssuesPerBankCommands)
{
    auto mc = make(false);
    Cycle done = 0;
    PimJob job;
    job.rowTiles = 64;
    job.banksUsed = 32;
    job.gwrites = 2;
    job.resultBursts = 4;
    job.composite = false;
    job.header = false;
    job.onComplete = [&](Cycle c) { done = c; };
    mc->enqueuePim(std::move(job));
    eq.run();
    EXPECT_GT(done, 0u);
    const auto &counts = mc->channel().commandCounts();
    EXPECT_EQ(counts.count(CommandType::PimDotProduct), 64u);
    EXPECT_EQ(counts.count(CommandType::PimActivate), 16u); // 8/round
    EXPECT_EQ(counts.count(CommandType::PimRdResult), 2u);
    EXPECT_EQ(counts.count(CommandType::PimGemv), 0u);
}

TEST_F(ControllerTest, CompositeUsesFarFewerCaCommands)
{
    // Figure 9: composite PIM_GEMV reduces C/A traffic.
    auto fine = make(false);
    auto comp = make(true);
    auto enqueue = [&](MemoryController &mc, bool composite) {
        PimJob job;
        job.rowTiles = 256;
        job.banksUsed = 32;
        job.gwrites = 2;
        job.resultBursts = 8;
        job.composite = composite;
        job.header = composite;
        job.onComplete = [](Cycle) {};
        mc.enqueuePim(std::move(job));
    };
    enqueue(*fine, false);
    enqueue(*comp, true);
    eq.run();
    auto fine_cmds = fine->channel().commandCounts().totalPim();
    auto comp_cmds = comp->channel().commandCounts().totalPim();
    EXPECT_GT(fine_cmds, comp_cmds * 5);
}

TEST_F(ControllerTest, CompositeKernelFinishesFasterThanFineGrained)
{
    auto fine = make(true); // same dual-row-buffer channel for both
    auto comp = make(true);
    Cycle fine_done = 0, comp_done = 0;
    auto enqueue = [&](MemoryController &mc, bool composite,
                       Cycle &done) {
        PimJob job;
        job.rowTiles = 512;
        job.banksUsed = 32;
        job.gwrites = 2;
        job.resultBursts = 8;
        job.composite = composite;
        job.header = true;
        job.onComplete = [&done](Cycle c) { done = c; };
        mc.enqueuePim(std::move(job));
    };
    enqueue(*fine, false, fine_done);
    enqueue(*comp, true, comp_done);
    eq.run();
    EXPECT_LT(comp_done, fine_done);
}

TEST_F(ControllerTest, BlockedModeSerializesMemBehindPim)
{
    auto mc = make(false); // baseline: blocked
    Cycle pim_done = 0, mem_done = 0;
    PimJob pjob;
    pjob.rowTiles = 128;
    pjob.banksUsed = 32;
    pjob.gwrites = 1;
    pjob.resultBursts = 2;
    pjob.composite = false;
    pjob.header = false;
    pjob.onComplete = [&](Cycle c) { pim_done = c; };
    mc->enqueuePim(std::move(pjob));
    MemJob mjob;
    mjob.bank = 5;
    mjob.row = 1;
    mjob.bursts = 1;
    mjob.onComplete = [&](Cycle c) { mem_done = c; };
    mc->enqueueMem(std::move(mjob));
    eq.run();
    // The read had to wait for the whole PIM kernel.
    EXPECT_GT(mem_done, pim_done);
}

TEST_F(ControllerTest, ConcurrentModeOverlapsMemWithPim)
{
    auto mc = make(true); // NeuPIMs: dual row buffers
    Cycle pim_done = 0, mem_done = 0;
    PimJob pjob;
    pjob.rowTiles = 512;
    pjob.banksUsed = 32;
    pjob.gwrites = 1;
    pjob.resultBursts = 2;
    pjob.composite = true;
    pjob.header = true;
    pjob.onComplete = [&](Cycle c) { pim_done = c; };
    mc->enqueuePim(std::move(pjob));
    MemJob mjob;
    mjob.bank = 5;
    mjob.row = 1;
    mjob.bursts = 4;
    mjob.onComplete = [&](Cycle c) { mem_done = c; };
    mc->enqueueMem(std::move(mjob));
    eq.run();
    // The read slots into C/A gaps long before the kernel finishes.
    EXPECT_LT(mem_done, pim_done / 2);
}

TEST_F(ControllerTest, MemThroughputDegradesGracefullyUnderPim)
{
    // Stream the same memory traffic with and without a concurrent
    // PIM kernel; the kernel must slow the stream by less than the
    // serialized (blocked) alternative would.
    auto run_stream = [&](bool with_pim) {
        EventQueue local_eq;
        auto cfg = ControllerConfig::make(true);
        MemoryController mc(local_eq, t, org, cfg);
        if (with_pim) {
            PimJob pjob;
            pjob.rowTiles = 256;
            pjob.banksUsed = 32;
            pjob.gwrites = 1;
            pjob.resultBursts = 2;
            pjob.composite = true;
            pjob.header = true;
            pjob.onComplete = [](Cycle) {};
            mc.enqueuePim(std::move(pjob));
        }
        Cycle last = 0;
        for (int i = 0; i < 128; ++i) {
            MemJob job;
            job.bank = i % org.banksPerChannel;
            job.row = 100 + i / org.banksPerChannel;
            job.bursts = 16;
            job.onComplete = [&last](Cycle c) {
                last = std::max(last, c);
            };
            mc.enqueueMem(std::move(job));
        }
        local_eq.run();
        return last;
    };
    Cycle alone = run_stream(false);
    Cycle shared = run_stream(true);
    EXPECT_GT(shared, alone);      // contention is real
    EXPECT_LT(shared, alone * 3);  // but far from serialization
}

TEST_F(ControllerTest, RefreshIsIssuedPeriodically)
{
    auto mc = make(true);
    // Enough traffic to span several tREFI intervals.
    int completed = 0;
    for (int i = 0; i < 2000; ++i) {
        MemJob job;
        job.bank = i % org.banksPerChannel;
        job.row = i / org.banksPerChannel;
        job.bursts = 16;
        job.onComplete = [&](Cycle) { ++completed; };
        mc->enqueueMem(std::move(job));
    }
    eq.run();
    EXPECT_EQ(completed, 2000);
    EXPECT_GE(mc->channel().commandCounts().count(CommandType::Ref), 3u);
}

TEST_F(ControllerTest, HeaderedKernelPostponesRefresh)
{
    auto with_header = make(true);
    auto without = make(true);
    auto enqueue = [&](MemoryController &mc, bool header, Cycle &done) {
        PimJob job;
        job.rowTiles = 4096; // long kernel spanning refresh intervals
        job.banksUsed = 32;
        job.gwrites = 1;
        job.resultBursts = 2;
        job.composite = true;
        job.header = header;
        job.onComplete = [&done](Cycle c) { done = c; };
        mc.enqueuePim(std::move(job));
    };
    Cycle done_hdr = 0, done_nohdr = 0;
    enqueue(*with_header, true, done_hdr);
    enqueue(*without, false, done_nohdr);
    eq.run();
    // Without PIM_HEADER the controller inserts conservative guard
    // gaps before refreshes; the kernel takes measurably longer.
    EXPECT_LT(done_hdr, done_nohdr);
}

TEST_F(ControllerTest, PimBankBusyCyclesAccumulate)
{
    auto mc = make(true);
    PimJob job;
    job.rowTiles = 64;
    job.banksUsed = 32;
    job.gwrites = 1;
    job.resultBursts = 2;
    job.composite = true;
    job.header = true;
    job.onComplete = [](Cycle) {};
    mc->enqueuePim(std::move(job));
    eq.run();
    EXPECT_EQ(mc->pimBankBusyCycles(), 64 * t.pimComputePerRow);
}

TEST_F(ControllerTest, PartialLastRoundUsesFewerBanks)
{
    auto mc = make(true);
    PimJob job;
    job.rowTiles = 40; // 32 + 8: second round uses 8 banks
    job.banksUsed = 32;
    job.gwrites = 1;
    job.resultBursts = 2;
    job.composite = true;
    job.header = true;
    job.onComplete = [](Cycle) {};
    mc->enqueuePim(std::move(job));
    eq.run();
    EXPECT_EQ(mc->pimBankBusyCycles(), 40 * t.pimComputePerRow);
    EXPECT_EQ(mc->channel().commandCounts().count(CommandType::PimGemv),
              2u);
}

TEST_F(ControllerTest, ManyKernelsRunBackToBack)
{
    auto mc = make(true);
    int completed = 0;
    Cycle last = 0;
    for (int k = 0; k < 10; ++k) {
        PimJob job;
        job.rowTiles = 32;
        job.banksUsed = 32;
        job.gwrites = 1;
        job.resultBursts = 2;
        job.composite = true;
        job.header = true;
        job.onComplete = [&](Cycle c) {
            ++completed;
            EXPECT_GE(c, last); // kernels complete in order
            last = c;
        };
        mc->enqueuePim(std::move(job));
    }
    eq.run();
    EXPECT_EQ(completed, 10);
}

TEST_F(ControllerTest, LatePimArrivalSeesBoundedStaleness)
{
    const Cycle horizon = 64;
    auto mc = make(true, horizon);
    // Saturate with memory jobs first.
    for (int i = 0; i < 512; ++i) {
        MemJob job;
        job.bank = i % org.banksPerChannel;
        job.row = i / org.banksPerChannel;
        job.bursts = 16;
        mc->enqueueMem(std::move(job));
    }
    // Inject a PIM kernel mid-stream.
    Cycle inject_at = 2000;
    Cycle pim_done = 0;
    eq.schedule(inject_at, [&] {
        PimJob job;
        job.rowTiles = 32;
        job.banksUsed = 32;
        job.gwrites = 1;
        job.resultBursts = 2;
        job.composite = true;
        job.header = true;
        job.onComplete = [&](Cycle c) { pim_done = c; };
        mc->enqueuePim(std::move(job));
    });
    eq.run();
    ASSERT_GT(pim_done, 0u);
    // One isolated 32-row kernel takes well under 1500 cycles; with
    // bounded-horizon priority, the injected kernel must not be stuck
    // behind the remaining tens of thousands of memory cycles.
    EXPECT_LT(pim_done, inject_at + 3000);
}

TEST_F(ControllerTest, MidStreamEnqueuesLeaveNoDuplicateWakeUps)
{
    // Each enqueue kicks the controller at the current cycle, which
    // supersedes the pending horizon resume. A superseded wake-up that
    // re-arms its own resume doubles every later wake-up. Rows
    // alternate over two banks, so every row waits out a row cycle
    // with a resume pending.
    auto mc = make(true);
    auto stream_row = [&](int i) {
        MemJob job;
        job.bank = i % 2;
        job.row = i / 2;
        job.bursts = 16;
        mc->enqueueMem(std::move(job));
    };
    const int rows = 256;
    for (int i = 0; i < rows; ++i)
        stream_row(i);
    const int late = 6;
    for (int k = 0; k < late; ++k) {
        eq.schedule(333 + 411 * static_cast<Cycle>(k), [&, k] {
            stream_row(rows + 2 * k);
            stream_row(rows + 2 * k + 1);
        });
    }
    eq.run();
    ASSERT_TRUE(mc->idle());
    std::uint64_t commands = 0;
    for (int i = 0; i < kNumCommandTypes; ++i)
        commands += mc->channel().commandCounts().counts[i];
    // Every live wake-up issues at least one command. Each enqueue
    // event adds itself, its kick and the resume that kick superseded.
    EXPECT_LE(eq.executedEvents(), commands + 4 * (late + 1));
}

TEST_F(ControllerTest, IdleReportsPendingWork)
{
    auto mc = make(true);
    EXPECT_TRUE(mc->idle());
    MemJob job;
    job.bank = 0;
    job.row = 0;
    job.bursts = 1;
    mc->enqueueMem(std::move(job));
    EXPECT_FALSE(mc->idle());
    EXPECT_EQ(mc->pendingMemJobs(), 1u);
    eq.run();
    EXPECT_TRUE(mc->idle());
}

} // namespace
} // namespace neupims::dram
