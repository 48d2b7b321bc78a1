/**
 * @file
 * Property tests for the pluggable DRAM arbitration policies
 * (dram/mem_sched.h): every policy completes every job on randomized
 * mixed MEM/PIM floods (no starvation under the caps), the row-buffer
 * outcome counters are conserved against completed MEM jobs, FR-FCFS
 * carries identically-zero contention integrals and reproduces the
 * historical controller decision-for-decision, and the Paws stint
 * machinery actually switches modes under contention.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/batch_builder.h"
#include "core/executor.h"
#include "dram/controller.h"
#include "dram/mem_sched.h"

namespace neupims::dram {
namespace {

TEST(MemSchedNames, RoundTripAndJunk)
{
    for (auto kind : {MemSchedKind::FrFcfs, MemSchedKind::PimFrFcfs,
                      MemSchedKind::Paws}) {
        MemSchedKind out = MemSchedKind::FrFcfs;
        EXPECT_TRUE(parseMemSchedKind(memSchedKindName(kind), out));
        EXPECT_EQ(out, kind);
    }
    MemSchedKind out = MemSchedKind::Paws;
    EXPECT_FALSE(parseMemSchedKind("fcfs", out));
    EXPECT_FALSE(parseMemSchedKind("", out));
    EXPECT_EQ(out, MemSchedKind::Paws); // junk leaves the out-param
}

struct FloodResult
{
    Cycle makespan = 0;
    int memCompleted = 0;
    int pimCompleted = 0;
    int memJobs = 0;
    int pimJobs = 0;
    MemSchedStats stats;
    std::uint64_t completedMemJobs = 0;
    CommandCounts commands;
};

/**
 * Flood both classes with a reproducible random mix so the policy's
 * choosePim() path (both classes live) decides most issues, and drain
 * to completion.
 */
FloodResult
runFlood(std::uint64_t seed, const MemSchedConfig &sched, int jobs = 500,
         double mem_share = 0.7)
{
    EventQueue eq;
    TimingParams t;
    Organization org;
    auto cfg = ControllerConfig::make(true);
    cfg.sched = sched;
    MemoryController mc(eq, t, org, cfg);

    Rng rng(seed);
    FloodResult r;
    for (int i = 0; i < jobs; ++i) {
        if (rng.uniform() < mem_share) {
            MemJob job;
            job.bank = static_cast<BankId>(
                rng.uniformInt(0, org.banksPerChannel - 1));
            job.row = static_cast<int>(rng.uniformInt(0, 63));
            job.bursts = static_cast<int>(rng.uniformInt(1, 16));
            job.write = rng.uniform() < 0.25;
            job.onComplete = [&r](Cycle c) {
                ++r.memCompleted;
                r.makespan = std::max(r.makespan, c);
            };
            mc.enqueueMem(std::move(job));
            ++r.memJobs;
        } else {
            PimJob job;
            job.rowTiles = static_cast<int>(rng.uniformInt(1, 64));
            job.banksUsed = t.pimParallelBanks;
            job.gwrites = static_cast<int>(rng.uniformInt(0, 3));
            job.resultBursts = static_cast<int>(rng.uniformInt(1, 8));
            job.onComplete = [&r](Cycle c) {
                ++r.pimCompleted;
                r.makespan = std::max(r.makespan, c);
            };
            mc.enqueuePim(std::move(job));
            ++r.pimJobs;
        }
    }
    eq.run();
    EXPECT_TRUE(mc.idle());
    r.stats = mc.memSchedStats();
    r.completedMemJobs = mc.completedMemJobs();
    r.commands = mc.channel().commandCounts();
    return r;
}

class PolicyFlood
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>>
{};

/** No starvation: every queued job of both classes completes under
 * every policy, including deliberately hostile cap settings. */
TEST_P(PolicyFlood, AllJobsCompleteUnderEveryPolicyAndCap)
{
    auto [seed, kind_idx] = GetParam();
    static const MemSchedKind kinds[] = {MemSchedKind::FrFcfs,
                                         MemSchedKind::PimFrFcfs,
                                         MemSchedKind::Paws};
    for (auto [starve, pim_cap] :
         {std::pair{1, 4}, std::pair{8, 48}, std::pair{64, 512}}) {
        MemSchedConfig sched;
        sched.kind = kinds[kind_idx];
        sched.pimStarveCap = starve;
        sched.pawsPimCap = pim_cap;
        auto r = runFlood(seed, sched);
        EXPECT_EQ(r.memCompleted, r.memJobs)
            << memSchedKindName(sched.kind) << " cap " << starve;
        EXPECT_EQ(r.pimCompleted, r.pimJobs)
            << memSchedKindName(sched.kind) << " cap " << pim_cap;
        EXPECT_GT(r.makespan, 0u);
    }
}

/** Row-outcome conservation: every completed MEM row is one hit, miss
 * or conflict (hits + misses + conflicts == completions), and both
 * command counters moved. */
TEST_P(PolicyFlood, RowCountersConservedAgainstCompletedJobs)
{
    auto [seed, kind_idx] = GetParam();
    static const MemSchedKind kinds[] = {MemSchedKind::FrFcfs,
                                         MemSchedKind::PimFrFcfs,
                                         MemSchedKind::Paws};
    MemSchedConfig sched;
    sched.kind = kinds[kind_idx];
    auto r = runFlood(seed, sched);
    EXPECT_EQ(r.stats.rowHits + r.stats.rowMisses + r.stats.rowConflicts,
              r.completedMemJobs);
    EXPECT_GT(r.stats.memCommands, 0u);
    EXPECT_GT(r.stats.pimCommands, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByPolicy, PolicyFlood,
    ::testing::Combine(::testing::Values(11u, 222u, 3333u),
                       ::testing::Values(0, 1, 2)));

/** FR-FCFS never defers either class behind a later candidate, so
 * both contention integrals are identically zero and the mode-switch
 * counter (a Paws concept) never moves. */
TEST(FrFcfs, ContentionIntegralsIdenticallyZero)
{
    for (std::uint64_t seed : {5u, 55u, 555u}) {
        MemSchedConfig sched; // default kind == FrFcfs
        auto r = runFlood(seed, sched);
        EXPECT_EQ(r.stats.pimStallCycles, 0u);
        EXPECT_EQ(r.stats.pimWasteCycles, 0u);
        EXPECT_EQ(r.stats.modeSwitches, 0u);
    }
}

/** Byte-identity at the controller: a default-constructed config and
 * an explicit FrFcfs selection produce the same makespan, completion
 * counts and per-command-type counts on the same workload. */
TEST(FrFcfs, ExplicitSelectionMatchesDefaultConfig)
{
    for (std::uint64_t seed : {5u, 55u, 555u}) {
        auto def = runFlood(seed, MemSchedConfig{});
        MemSchedConfig explicit_cfg;
        explicit_cfg.kind = MemSchedKind::FrFcfs;
        auto exp = runFlood(seed, explicit_cfg);
        EXPECT_EQ(def.makespan, exp.makespan);
        EXPECT_EQ(def.memCompleted, exp.memCompleted);
        EXPECT_EQ(def.pimCompleted, exp.pimCompleted);
        for (auto type :
             {CommandType::Act, CommandType::Pre, CommandType::Rd,
              CommandType::Wr, CommandType::Ref, CommandType::PimGemv,
              CommandType::PimHeader, CommandType::PimActivate,
              CommandType::PimGwrite, CommandType::PimDotProduct}) {
            EXPECT_EQ(def.commands.count(type), exp.commands.count(type));
        }
    }
}

/** Byte-identity at the engine: a full measured iteration under the
 * default device config equals one with FrFcfs selected explicitly,
 * cycle for cycle (the golden executor test locks the same bytes
 * against the historical engine). */
TEST(FrFcfs, ExecutorIterationBitIdenticalToDefault)
{
    auto llm = model::gpt3_13b();
    auto dev = core::DeviceConfig::neuPims();
    auto comp = core::uniformComposition(256, 512, dev.org.channels);

    core::DeviceExecutor base(dev, llm, llm.defaultTp, 3);
    auto r0 = base.runIteration(comp, 3, 1);

    auto dev2 = dev;
    dev2.memSched.kind = MemSchedKind::FrFcfs;
    core::DeviceExecutor explicit_sel(dev2, llm, llm.defaultTp, 3);
    auto r1 = explicit_sel.runIteration(comp, 3, 1);

    EXPECT_EQ(r0.perLayerCycles, r1.perLayerCycles);
    EXPECT_EQ(r0.iterationCycles, r1.iterationCycles);
    EXPECT_EQ(r0.dataBusBytes, r1.dataBusBytes);
    EXPECT_EQ(r0.pimBankBusyCycles, r1.pimBankBusyCycles);
}

/** PIM-priority policies actually bias: on the same flood,
 * pim-frfcfs accumulates waste (bus held for later PIM commands)
 * and Paws switches modes. */
TEST(PimPolicies, BiasObservableInStats)
{
    MemSchedConfig pf;
    pf.kind = MemSchedKind::PimFrFcfs;
    auto r = runFlood(77u, pf);
    EXPECT_GT(r.stats.pimWasteCycles, 0u);

    MemSchedConfig paws;
    paws.kind = MemSchedKind::Paws;
    paws.pawsPimCap = 8; // small stints force frequent switching
    auto p = runFlood(77u, paws);
    EXPECT_GT(p.stats.modeSwitches, 0u);
}

/** The starvation cap is live: with cap 1 a MEM command is forced
 * through at every other contended decision, so MEM finishes no later
 * than under an effectively-unbounded cap. */
TEST(PimFrFcfs, StarveCapBoundsMemDeferral)
{
    MemSchedConfig tight;
    tight.kind = MemSchedKind::PimFrFcfs;
    tight.pimStarveCap = 1;
    MemSchedConfig loose = tight;
    loose.pimStarveCap = 1 << 20;
    auto t = runFlood(99u, tight);
    auto l = runFlood(99u, loose);
    EXPECT_EQ(t.memCompleted, t.memJobs);
    EXPECT_EQ(l.memCompleted, l.memJobs);
    // Tighter cap defers no more MEM work than the loose one.
    EXPECT_LE(t.stats.pimWasteCycles, l.stats.pimWasteCycles);
}

} // namespace
} // namespace neupims::dram
