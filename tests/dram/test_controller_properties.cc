/**
 * @file
 * Property sweeps for the memory controller: randomized mixed
 * MEM/PIM workloads across controller configurations must satisfy
 * the structural invariants — everything completes, per-bank
 * completions are causally ordered, byte accounting matches the jobs
 * issued, blocked mode never beats concurrent mode, and the
 * composite interface never loses to the fine-grained one. Seeded
 * floods across every policy and mode pin the exact schedules, and a
 * stream descriptor schedules exactly like its rows enqueued one by
 * one.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.h"
#include "dram/controller.h"

namespace neupims::dram {
namespace {

struct WorkloadResult
{
    Cycle makespan = 0;
    int memCompleted = 0;
    int pimCompleted = 0;
    Bytes expectedReadBytes = 0;
};

/** Drive a reproducible random mix of row streams and PIM kernels. */
WorkloadResult
runMixedWorkload(std::uint64_t seed, bool dual, Cycle horizon,
                 int mem_window, bool composite)
{
    EventQueue eq;
    TimingParams t;
    Organization org;
    auto cfg = ControllerConfig::make(dual);
    cfg.horizon = horizon;
    cfg.memIssueWindow = mem_window;
    MemoryController mc(eq, t, org, cfg);

    Rng rng(seed);
    WorkloadResult r;
    int mem_jobs = 0, pim_jobs = 0;
    for (int i = 0; i < 400; ++i) {
        if (rng.uniform() < 0.8) {
            MemJob job;
            job.bank = static_cast<BankId>(
                rng.uniformInt(0, org.banksPerChannel - 1));
            job.row = static_cast<int>(rng.uniformInt(0, 63));
            job.bursts = static_cast<int>(rng.uniformInt(1, 16));
            job.write = rng.uniform() < 0.25;
            if (!job.write)
                r.expectedReadBytes +=
                    static_cast<Bytes>(job.bursts) * org.burstBytes;
            job.onComplete = [&r](Cycle c) {
                ++r.memCompleted;
                r.makespan = std::max(r.makespan, c);
            };
            mc.enqueueMem(std::move(job));
            ++mem_jobs;
        } else {
            PimJob job;
            job.rowTiles = static_cast<int>(rng.uniformInt(1, 96));
            job.banksUsed = t.pimParallelBanks;
            job.gwrites = static_cast<int>(rng.uniformInt(0, 3));
            job.resultBursts = static_cast<int>(rng.uniformInt(1, 8));
            job.composite = composite;
            job.header = composite;
            job.onComplete = [&r](Cycle c) {
                ++r.pimCompleted;
                r.makespan = std::max(r.makespan, c);
            };
            mc.enqueuePim(std::move(job));
            ++pim_jobs;
        }
    }
    eq.run();
    EXPECT_TRUE(mc.idle());
    EXPECT_EQ(r.memCompleted, mem_jobs);
    EXPECT_EQ(r.pimCompleted, pim_jobs);
    return r;
}

class MixedWorkload
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, bool, Cycle, int>>
{};

TEST_P(MixedWorkload, AllJobsCompleteUnderAnyConfiguration)
{
    auto [seed, dual, horizon, window] = GetParam();
    auto r = runMixedWorkload(seed, dual, horizon, window, dual);
    EXPECT_GT(r.makespan, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MixedWorkload,
    ::testing::Combine(::testing::Values(101u, 202u, 303u),
                       ::testing::Bool(),
                       ::testing::Values<Cycle>(32, 256, 2048),
                       ::testing::Values(1, 4, 8)));

class SeedOnly : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SeedOnly, ConcurrentModeNeverSlowerThanBlocked)
{
    auto blocked =
        runMixedWorkload(GetParam(), false, 256, 8, false);
    auto dual = runMixedWorkload(GetParam(), true, 256, 8, true);
    // Dual row buffers + composite commands strictly dominate on the
    // same job mix (modulo a whisker of scheduling noise).
    EXPECT_LT(dual.makespan,
              blocked.makespan + blocked.makespan / 20);
}

TEST_P(SeedOnly, CompositeNeverSlowerThanFineGrained)
{
    auto fine = runMixedWorkload(GetParam(), true, 256, 8, false);
    auto comp = runMixedWorkload(GetParam(), true, 256, 8, true);
    EXPECT_LE(comp.makespan, fine.makespan + fine.makespan / 20);
}

TEST_P(SeedOnly, HorizonDoesNotChangeTotalWork)
{
    // The horizon bounds reservation lookahead; it must not change
    // how much work completes, and makespans should stay close.
    auto near = runMixedWorkload(GetParam(), true, 32, 8, true);
    auto far = runMixedWorkload(GetParam(), true, 4096, 8, true);
    EXPECT_EQ(near.memCompleted, far.memCompleted);
    EXPECT_EQ(near.pimCompleted, far.pimCompleted);
    double ratio = static_cast<double>(near.makespan) /
                   static_cast<double>(far.makespan);
    EXPECT_GT(ratio, 0.85);
    EXPECT_LT(ratio, 1.18);
}

TEST_P(SeedOnly, DeeperIssueWindowHelpsOrTies)
{
    auto shallow = runMixedWorkload(GetParam(), true, 256, 1, true);
    auto deep = runMixedWorkload(GetParam(), true, 256, 8, true);
    EXPECT_LE(deep.makespan,
              shallow.makespan + shallow.makespan / 50);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedOnly,
                         ::testing::Values(7u, 77u, 777u, 7777u));

// ---------------------------------------------------------------------------
// Schedule pin. The controller's command schedule is part of the
// behaviour contract — every golden and pinned checksum derives from
// it — so a hot-path change must not move a single completion. Each
// case floods one controller with a seeded mix of reads and writes,
// same-bank row hits and conflicts, and MEM/PIM arrivals injected
// mid-stream while a horizon resume is pending, then folds every
// completion, the channel's CommandCounts and the controller's
// statistics into one FNV-1a hash. A mismatch means a schedule moved;
// re-pin only for an intended behaviour change.
// ---------------------------------------------------------------------------

void
fnvFold(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
    }
}

struct PinCase
{
    MemSchedKind kind;
    bool dual;
    bool composite;
    bool header;
    Cycle horizon;
};

std::uint64_t
runPinnedFlood(const PinCase &pc, std::uint64_t seed)
{
    EventQueue eq;
    TimingParams t;
    Organization org;
    auto cfg = ControllerConfig::make(pc.dual);
    cfg.horizon = pc.horizon;
    cfg.sched = pc.kind;
    MemoryController mc(eq, t, org, cfg);

    Rng rng(seed);
    std::uint64_t h = 1469598103934665603ULL;
    std::uint64_t next_id = 0;
    std::vector<int> last_row(static_cast<std::size_t>(org.banksPerChannel),
                              0);
    auto mem = [&] {
        MemJob job;
        // Few banks and half repeated rows: hits, misses and conflicts.
        job.bank = static_cast<BankId>(rng.uniformInt(0, 11));
        int &row = last_row[static_cast<std::size_t>(job.bank)];
        if (rng.uniform() < 0.5)
            row = static_cast<int>(rng.uniformInt(0, 63));
        job.row = row;
        job.bursts = static_cast<int>(rng.uniformInt(1, 16));
        job.write = rng.uniform() < 0.3;
        job.onComplete = [&h, id = next_id++](Cycle c) {
            fnvFold(h, id);
            fnvFold(h, c);
        };
        mc.enqueueMem(std::move(job));
    };
    auto pim = [&] {
        static constexpr int kBanks[] = {4, 8, 32};
        PimJob job;
        job.rowTiles = static_cast<int>(rng.uniformInt(1, 80));
        job.banksUsed = kBanks[rng.uniformInt(0, 2)];
        job.gwrites = static_cast<int>(rng.uniformInt(0, 3));
        job.resultBursts = static_cast<int>(rng.uniformInt(1, 8));
        job.composite = pc.composite;
        job.header = pc.header;
        job.onComplete = [&h, id = next_id++](Cycle c) {
            fnvFold(h, id);
            fnvFold(h, c);
        };
        mc.enqueuePim(std::move(job));
    };

    for (int i = 0; i < 320; ++i) {
        if (rng.uniform() < 0.93)
            mem();
        else
            pim();
    }
    for (int k = 0; k < 40; ++k) {
        Cycle at = rng.uniformInt(50, 30000);
        int nmem = static_cast<int>(rng.uniformInt(0, 6));
        bool with_pim = rng.uniform() < 0.5;
        eq.schedule(at, [&mem, &pim, nmem, with_pim] {
            for (int i = 0; i < nmem; ++i)
                mem();
            if (with_pim)
                pim();
        });
    }
    eq.run();
    EXPECT_TRUE(mc.idle());

    for (std::uint64_t n : mc.channel().commandCounts().counts)
        fnvFold(h, n);
    const MemSchedStats &s = mc.memSchedStats();
    for (std::uint64_t v : {s.rowHits, s.rowMisses, s.rowConflicts,
                            s.memCommands, s.pimCommands, s.modeSwitches,
                            s.pimStallCycles, s.pimWasteCycles})
        fnvFold(h, v);
    return h;
}

TEST(ControllerSchedulePin, FloodsReproducePinnedSchedules)
{
    // Case order: kind x dual x composite x header x horizon, the last
    // varying fastest. Case i's seed is 1000 + i, except that the paws
    // cases start at 1032: seeds 1016-1031 drove a removed policy's
    // cases, and skipping them kept every pin.
    static constexpr std::uint64_t kPinned[32] = {
        // frfcfs, dual
        0x290af52ecfd880ecULL, 0x50ae7d5372992c60ULL,
        0x950e5b01634f9d90ULL, 0xd727bfd814ee6b85ULL,
        0x343a58c83d9d5d21ULL, 0xed7da76ae08e554eULL,
        0x75cfd4aef0b28f70ULL, 0xbba5b0808d85a919ULL,
        // frfcfs, blocked
        0xe1fe4353730b834bULL, 0x49b3b1aad6d0a94dULL,
        0xe70f3ffb69d192b3ULL, 0x78553c2096a9abbbULL,
        0x5f904202f15cead7ULL, 0xd58666a5dd21cd56ULL,
        0x54ec64763c46396dULL, 0x3ceb56d9be999d54ULL,
        // paws, dual
        0x216af166292d889dULL, 0xf82207c1ce75927eULL,
        0x7f609b080bc3688aULL, 0x7602c6c7a346559cULL,
        0xcd63588e72154d71ULL, 0xd595e2326908465eULL,
        0xe5becbc4bb6d0e5eULL, 0xd025e399f0f52e2dULL,
        // paws, blocked
        0x48ec93dd0e7ddcf0ULL, 0x7149a7918529d7a4ULL,
        0x0c8746252f44d7acULL, 0xf249fd5a8c583623ULL,
        0xac7ae6e80ce7d38eULL, 0x7851f76b6a9664a8ULL,
        0x347c4d914c8f7c1dULL, 0xd737e123a4705545ULL,
    };
    int i = 0;
    for (MemSchedKind kind : {MemSchedKind::FrFcfs, MemSchedKind::Paws}) {
        for (bool dual : {true, false}) {
            for (bool composite : {true, false}) {
                for (bool header : {true, false}) {
                    for (Cycle horizon : {Cycle{16}, Cycle{256}}) {
                        PinCase pc{kind, dual, composite, header, horizon};
                        const int seed = i < 16 ? 1000 + i : 1016 + i;
                        std::uint64_t got = runPinnedFlood(
                            pc, static_cast<std::uint64_t>(seed));
                        EXPECT_EQ(got, kPinned[i])
                            << "case " << i << ": " << memSchedKindName(kind)
                            << (dual ? " dual" : " blocked")
                            << (composite ? " composite" : " fine-grained")
                            << (header ? " headered" : " headerless")
                            << " horizon " << horizon << std::hex
                            << " got 0x" << got;
                        ++i;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Stream descriptors (DESIGN.md §3.5). One N-row MemJob must schedule
// exactly like its N rows enqueued as one-row MemJobs, with its one
// completion at the latest row completion.
// ---------------------------------------------------------------------------

struct DescriptorRun
{
    std::vector<Cycle> streamDone; ///< per stream, its final completion
    int completions = 0;           ///< MemJob callbacks invoked
    CommandCounts counts;
    MemSchedStats sched;
    double dataUtil = 0.0;
    Cycle end = 0;
};

DescriptorRun
runDescriptorFlood(MemSchedKind kind, bool dual, bool as_rows,
                   std::uint64_t seed)
{
    EventQueue eq;
    TimingParams t;
    Organization org;
    auto cfg = ControllerConfig::make(dual);
    cfg.sched = kind;
    MemoryController mc(eq, t, org, cfg);

    Rng rng(seed);
    DescriptorRun r;
    auto stream = [&] {
        MemJob job;
        job.bank = static_cast<BankId>(
            rng.uniformInt(0, org.banksPerChannel - 1));
        job.row = static_cast<int>(rng.uniformInt(0, 63));
        job.rows = static_cast<int>(rng.uniformInt(1, 40));
        job.bursts = static_cast<int>(rng.uniformInt(1, 16));
        job.tailBursts = static_cast<int>(
            rng.uniformInt(1, static_cast<std::uint64_t>(job.bursts)));
        job.write = rng.uniform() < 0.3;
        const std::size_t id = r.streamDone.size();
        r.streamDone.push_back(0);
        auto done = [&r, id](Cycle c) {
            ++r.completions;
            r.streamDone[id] = std::max(r.streamDone[id], c);
        };
        if (!as_rows) {
            job.onComplete = done;
            mc.enqueueMem(std::move(job));
            return;
        }
        for (int i = 0; i < job.rows; ++i) {
            MemJob one;
            one.bank = (job.bank + i) % org.banksPerChannel;
            one.row = job.row + (job.bank + i) / org.banksPerChannel;
            one.bursts = i + 1 == job.rows ? job.tailBursts : job.bursts;
            one.write = job.write;
            one.onComplete = done;
            mc.enqueueMem(std::move(one));
        }
    };
    auto pim = [&] {
        PimJob job;
        job.rowTiles = static_cast<int>(rng.uniformInt(1, 64));
        job.banksUsed = t.pimParallelBanks;
        job.gwrites = static_cast<int>(rng.uniformInt(0, 2));
        job.resultBursts = static_cast<int>(rng.uniformInt(1, 8));
        job.composite = dual;
        job.header = dual;
        mc.enqueuePim(std::move(job));
    };
    for (int i = 0; i < 24; ++i) {
        stream();
        if (rng.uniform() < 0.25)
            pim();
    }
    for (int k = 0; k < 24; ++k) {
        Cycle at = rng.uniformInt(50, 40'000);
        bool with_pim = rng.uniform() < 0.5;
        eq.schedule(at, [&stream, &pim, with_pim] {
            stream();
            if (with_pim)
                pim();
        });
    }
    eq.run();
    EXPECT_TRUE(mc.idle());
    EXPECT_EQ(mc.memCompletions(), static_cast<std::uint64_t>(r.completions));
    r.counts = mc.channel().commandCounts();
    r.sched = mc.memSchedStats();
    r.end = eq.now();
    r.dataUtil = mc.channel().dataBusUtilization(0, r.end + 1);
    return r;
}

TEST(ControllerDescriptor, StreamMatchesItsRowsEnqueuedOneByOne)
{
    for (MemSchedKind kind : {MemSchedKind::FrFcfs, MemSchedKind::Paws}) {
        for (bool dual : {true, false}) {
            for (std::uint64_t seed : {11u, 12u}) {
                SCOPED_TRACE(::testing::Message()
                             << memSchedKindName(kind)
                             << (dual ? " dual" : " blocked") << " seed "
                             << seed);
                DescriptorRun desc =
                    runDescriptorFlood(kind, dual, false, seed);
                DescriptorRun rows = runDescriptorFlood(kind, dual, true, seed);
                EXPECT_EQ(desc.streamDone, rows.streamDone);
                EXPECT_EQ(desc.end, rows.end);
                EXPECT_EQ(desc.completions,
                          static_cast<int>(desc.streamDone.size()));
                EXPECT_GT(rows.completions, 4 * desc.completions);
                for (int i = 0; i < kNumCommandTypes; ++i)
                    EXPECT_EQ(desc.counts.counts[i], rows.counts.counts[i])
                        << "command " << i;
                for (auto field :
                     {&MemSchedStats::rowHits, &MemSchedStats::rowMisses,
                      &MemSchedStats::rowConflicts,
                      &MemSchedStats::memCommands,
                      &MemSchedStats::pimCommands,
                      &MemSchedStats::modeSwitches})
                    EXPECT_EQ(desc.sched.*field, rows.sched.*field);
                EXPECT_EQ(desc.sched.pimStallCycles, rows.sched.pimStallCycles);
                EXPECT_EQ(desc.sched.pimWasteCycles, rows.sched.pimWasteCycles);
                EXPECT_EQ(desc.dataUtil, rows.dataUtil);
                // Blocked mode never holds both classes at once, so
                // paws switches modes only on dual row buffers.
                if (kind == MemSchedKind::Paws && dual) {
                    EXPECT_GT(desc.sched.modeSwitches, 0u);
                }
            }
        }
    }
}

TEST(ControllerRefresh, RefreshRateTracksElapsedTime)
{
    EventQueue eq;
    TimingParams t;
    Organization org;
    MemoryController mc(eq, t, org, ControllerConfig::make(true));
    Cycle last = 0;
    for (int i = 0; i < 6000; ++i) {
        MemJob job;
        job.bank = i % org.banksPerChannel;
        job.row = i / org.banksPerChannel;
        job.bursts = 16;
        job.onComplete = [&last](Cycle c) {
            last = std::max(last, c);
        };
        mc.enqueueMem(std::move(job));
    }
    eq.run();
    auto refs = mc.channel().commandCounts().count(CommandType::Ref);
    double expected = static_cast<double>(last) / t.tREFI;
    EXPECT_NEAR(static_cast<double>(refs), expected, expected * 0.25 + 2);
}

TEST(ControllerRefresh, HeaderedKernelsDeferNoMoreThanBudget)
{
    // A kernel spanning many tREFI intervals may postpone at most 8
    // refreshes; afterwards the controller catches up.
    EventQueue eq;
    TimingParams t;
    Organization org;
    MemoryController mc(eq, t, org, ControllerConfig::make(true));
    Cycle done = 0;
    PimJob job;
    job.rowTiles = 3000; // ~ tens of tREFI long at 8 banks
    job.banksUsed = t.pimParallelBanks;
    job.gwrites = 1;
    job.resultBursts = 2;
    job.composite = true;
    job.header = true;
    job.onComplete = [&](Cycle c) { done = c; };
    mc.enqueuePim(std::move(job));
    eq.run();
    auto refs = mc.channel().commandCounts().count(CommandType::Ref);
    double intervals = static_cast<double>(done) / t.tREFI;
    // All but the postponed budget must have been issued.
    EXPECT_GE(static_cast<double>(refs), intervals - 9.0);
}

} // namespace
} // namespace neupims::dram
