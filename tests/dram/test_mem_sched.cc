/**
 * @file
 * Property tests for the DRAM arbitration policies (dram/mem_sched.h):
 * both policies complete every job on randomized mixed MEM/PIM floods
 * over dual and blocked banks (no starvation under the Paws caps), the
 * row-buffer outcome counters are conserved against completed MEM
 * jobs, FR-FCFS is the default, selected by name runs the default's
 * iteration and carries identically-zero contention integrals, and
 * the Paws stint machinery actually switches modes under contention.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/batch_builder.h"
#include "core/device_config.h"
#include "core/executor.h"
#include "core/serving_setup.h"
#include "dram/controller.h"
#include "dram/mem_sched.h"

namespace neupims::dram {
namespace {

constexpr MemSchedKind kKinds[] = {MemSchedKind::FrFcfs,
                                   MemSchedKind::Paws};

TEST(MemSchedNames, RoundTripAndJunk)
{
    for (MemSchedKind kind : kKinds) {
        MemSchedKind out = MemSchedKind::FrFcfs;
        EXPECT_TRUE(parseMemSchedKind(memSchedKindName(kind), out));
        EXPECT_EQ(out, kind);
    }
    MemSchedKind out = MemSchedKind::Paws;
    EXPECT_FALSE(parseMemSchedKind("fcfs", out));
    EXPECT_FALSE(parseMemSchedKind("pim-frfcfs", out));
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
};

/**
 * Flood both classes with a reproducible random mix so the policy's
 * choosePim() path (both classes live) decides most issues, and drain
 * to completion.
 */
FloodResult
runFlood(std::uint64_t seed, MemSchedKind kind, bool dual = true,
         int jobs = 500, double mem_share = 0.7)
{
    EventQueue eq;
    TimingParams t;
    Organization org;
    auto cfg = ControllerConfig::make(dual);
    cfg.sched = kind;
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
    return r;
}

/** The flood parameter is (seed, setup): setup 2k + b runs kKinds[k]
 * on dual (b = 0) or blocked (b = 1) banks. */
class PolicyFlood
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>>
{
  protected:
    FloodResult flood() const
    {
        auto [seed, setup] = GetParam();
        return runFlood(seed, kKinds[setup / 2], setup % 2 == 0);
    }
};

/** No starvation: every queued job of both classes completes under
 * every policy and bank mode. Row-outcome conservation: every
 * completed MEM row is one hit, miss or conflict (hits + misses +
 * conflicts == completions), and both command counters moved. */
TEST_P(PolicyFlood, RowCountersConservedAgainstCompletedJobs)
{
    auto r = flood();
    EXPECT_EQ(r.memCompleted, r.memJobs);
    EXPECT_EQ(r.pimCompleted, r.pimJobs);
    EXPECT_GT(r.makespan, 0u);
    EXPECT_EQ(r.stats.rowHits + r.stats.rowMisses + r.stats.rowConflicts,
              r.completedMemJobs);
    EXPECT_GT(r.stats.memCommands, 0u);
    EXPECT_GT(r.stats.pimCommands, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByPolicy, PolicyFlood,
    ::testing::Combine(::testing::Values(11u, 222u, 3333u),
                       ::testing::Values(0, 1, 2, 3)));

/** FR-FCFS never defers either class behind a later candidate, so
 * both contention integrals are identically zero and the mode-switch
 * counter (a Paws concept) never moves. */
TEST(FrFcfs, ContentionIntegralsIdenticallyZero)
{
    for (std::uint64_t seed : {5u, 55u, 555u}) {
        auto r = runFlood(seed, MemSchedKind::FrFcfs);
        EXPECT_EQ(r.stats.pimStallCycles, 0u);
        EXPECT_EQ(r.stats.pimWasteCycles, 0u);
        EXPECT_EQ(r.stats.modeSwitches, 0u);
    }
}

/** FR-FCFS, the paper's arbitration, is what a default-constructed
 * controller config and every device preset select. */
TEST(FrFcfs, ExplicitSelectionMatchesDefaultConfig)
{
    EXPECT_EQ(ControllerConfig{}.sched, MemSchedKind::FrFcfs);
    std::vector<core::DeviceConfig> presets = {
        core::DeviceConfig::npuOnly(), core::DeviceConfig::naiveNpuPim(),
        core::DeviceConfig::neuPims()};
    for (int steps = 0; steps < 8; ++steps)
        presets.push_back(core::DeviceConfig::ablation(
            steps & 1, steps & 2, steps & 4));
    for (const core::DeviceConfig &dev : presets) {
        EXPECT_EQ(dev.memSched, MemSchedKind::FrFcfs) << dev.name;
        EXPECT_EQ(dev.controllerConfig().sched, MemSchedKind::FrFcfs)
            << dev.name;
    }
}

/** Selecting FR-FCFS by name, as the CLIs do, over an earlier Paws
 * selection runs a measured iteration cycle for cycle like the default
 * device (the golden executor test locks the same bytes against the
 * historical engine). */
TEST(FrFcfs, ExecutorIterationBitIdenticalToDefault)
{
    auto llm = model::gpt3_13b();
    auto dev = core::DeviceConfig::neuPims();
    auto comp = core::uniformComposition(256, 512, dev.org.channels);

    core::DeviceExecutor base(dev, llm, llm.defaultTp, 3);
    auto r0 = base.runIteration(comp, 3, 1);

    auto by_name = dev;
    by_name.memSched = MemSchedKind::Paws;
    core::applyMemSched(by_name, "frfcfs");
    core::DeviceExecutor selected(by_name, llm, llm.defaultTp, 3);
    auto r1 = selected.runIteration(comp, 3, 1);

    EXPECT_EQ(r0.perLayerCycles, r1.perLayerCycles);
    EXPECT_EQ(r0.iterationCycles, r1.iterationCycles);
    EXPECT_EQ(r0.dataBusBytes, r1.dataBusBytes);
    EXPECT_EQ(r0.pimBankBusyCycles, r1.pimBankBusyCycles);
}

/** Paws actually biases: on the same kind of flood it holds the bus
 * for later PIM commands while MEM work is ready, and switches modes. */
TEST(PimPolicies, BiasObservableInStats)
{
    auto p = runFlood(77u, MemSchedKind::Paws);
    EXPECT_GT(p.stats.pimWasteCycles, 0u);
    EXPECT_GT(p.stats.modeSwitches, 0u);
}

} // namespace
} // namespace neupims::dram
