/**
 * @file
 * Thread-parallel channel stepping: the worker pool and the sharded
 * event queue must be invisible in the results. The differential
 * tests run the identical workload serially (simThreads = 1) and
 * threaded (simThreads = 4) across every execution mode the paper
 * evaluates x all three DRAM arbitration policies, on heterogeneous
 * compositions that defeat the symmetry fast path, and demand a
 * bit-identical IterationResult — cycles, utilizations, command
 * counts, arbitration statistics. A serving-level differential
 * replays a fault schedule through the measured model both ways and
 * compares every request's finish cycle. DESIGN.md §12 gives the
 * ordering argument; these tests are the proof obligation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/event_queue.h"
#include "core/batch_builder.h"
#include "core/device_config.h"
#include "core/executor.h"
#include "core/parallel.h"
#include "core/serving_setup.h"
#include "runtime/serving_engine.h"
#include "runtime/traffic.h"

namespace neupims::core {
namespace {

// --- resolveSimThreads ------------------------------------------------------

TEST(ResolveSimThreads, ConfiguredValueWins)
{
    setenv("NEUPIMS_SIM_THREADS", "7", 1);
    EXPECT_EQ(resolveSimThreads(3), 3);
    unsetenv("NEUPIMS_SIM_THREADS");
}

TEST(ResolveSimThreads, ZeroDefersToEnvironmentThenSerial)
{
    setenv("NEUPIMS_SIM_THREADS", "5", 1);
    EXPECT_EQ(resolveSimThreads(0), 5);
    unsetenv("NEUPIMS_SIM_THREADS");
    EXPECT_EQ(resolveSimThreads(0), 1);
}

// --- WorkerPool -------------------------------------------------------------

struct CountingEvent : ShardedEvent
{
    std::atomic<int> prepares{0};
    int commits = 0;

    void prepare() override { prepares.fetch_add(1); }
    void commit() override { ++commits; }
};

TEST(WorkerPool, PreparesEveryGroupExactlyOnce)
{
    WorkerPool pool(4);
    EXPECT_EQ(pool.threads(), 4);

    std::vector<CountingEvent> events(13);
    std::vector<std::vector<ShardedEvent *>> groups;
    for (auto &ev : events)
        groups.push_back({&ev});

    // Two batches through the same pool: the epoch handshake must
    // rearm cleanly between runs.
    pool.run(groups);
    pool.run(groups);
    for (auto &ev : events)
        EXPECT_EQ(ev.prepares.load(), 2);
}

TEST(WorkerPool, SingleGroupRunsInline)
{
    WorkerPool pool(2);
    CountingEvent ev;
    std::vector<std::vector<ShardedEvent *>> groups{{&ev}};
    pool.run(groups);
    EXPECT_EQ(ev.prepares.load(), 1);
}

// --- EventQueue sharded dispatch --------------------------------------------

/** Inline runner that records how many multi-group batches it saw. */
struct RecordingRunner : ShardRunner
{
    int batches = 0;
    std::size_t largest = 0;

    void
    run(const std::vector<std::vector<ShardedEvent *>> &groups) override
    {
        ++batches;
        largest = std::max(largest, groups.size());
        for (const auto &g : groups)
            for (ShardedEvent *ev : g)
                ev->prepare();
    }
};

/** Sharded event logging prepare/commit order into a shared trace. */
struct TracingEvent : ShardedEvent
{
    std::vector<std::string> *trace = nullptr;
    std::string name;
    std::atomic<bool> prepared{false};

    void prepare() override { prepared.store(true); }
    void
    commit() override
    {
        // Commits replay on the dispatching thread in schedule order,
        // after every prepare in the batch has finished.
        EXPECT_TRUE(prepared.load());
        trace->push_back(name);
        prepared.store(false);
    }
};

TEST(EventQueueSharded, ConsecutiveSameCycleEventsBatchInOrder)
{
    EventQueue eq;
    RecordingRunner runner;
    eq.setShardRunner(&runner);

    std::vector<std::string> trace;
    TracingEvent a, b, c;
    for (auto *ev : {&a, &b, &c})
        ev->trace = &trace;
    a.name = "A";
    b.name = "B";
    c.name = "C";

    eq.schedule(10, [&trace] { trace.push_back("plain"); });
    eq.scheduleSharded(10, &a);
    eq.scheduleSharded(10, &b);
    eq.scheduleSharded(10, &c);
    eq.run();

    // The plain callback ran first (schedule order), then the three
    // sharded events were dispatched as one batch whose commits
    // replayed in their original sequence order.
    ASSERT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace[0], "plain");
    EXPECT_EQ(trace[1], "A");
    EXPECT_EQ(trace[2], "B");
    EXPECT_EQ(trace[3], "C");
    EXPECT_EQ(runner.batches, 1);
    EXPECT_EQ(runner.largest, 3u);
}

TEST(EventQueueSharded, NoRunnerFallsBackToInlineExecution)
{
    EventQueue eq;
    std::vector<std::string> trace;
    TracingEvent a, b;
    a.trace = b.trace = &trace;
    a.name = "A";
    b.name = "B";
    eq.scheduleSharded(5, &a);
    eq.scheduleSharded(5, &b);
    eq.run();
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0], "A");
    EXPECT_EQ(trace[1], "B");
}

// --- differential bit-identity ----------------------------------------------

/** A small decoder model that keeps the serial reference runs fast. */
model::LlmConfig
tinyModel()
{
    model::LlmConfig cfg;
    cfg.name = "tiny-1B";
    cfg.numLayers = 8;
    cfg.numHeads = 8;
    cfg.dModel = 1024;
    cfg.defaultTp = 1;
    cfg.defaultPp = 1;
    return cfg;
}

/** An execution mode, held by value with no pointer members: gtest
 * prints a parameter it has no printer for as its raw bytes, and
 * gtest_discover_tests copies that dump into the CTest names, so a
 * pointer here would rename the cases on every discovery run (ASLR
 * moves the addresses). */
struct ModeParam
{
    char name[16];

    DeviceConfig make() const;
};

DeviceConfig
makeNpuOnly()
{
    return DeviceConfig::npuOnly();
}

DeviceConfig
makeSerialNpuPim()
{
    return DeviceConfig::naiveNpuPim();
}

DeviceConfig
makeNeuPimsSerial()
{
    auto cfg = DeviceConfig::neuPims();
    cfg.sbiMinBatch = 1 << 20;
    return cfg;
}

DeviceConfig
makeNeuPimsSbi()
{
    auto cfg = DeviceConfig::neuPims();
    cfg.sbiMinBatch = 0;
    return cfg;
}

DeviceConfig
ModeParam::make() const
{
    const std::string mode = name;
    if (mode == "SerialNpuPim")
        return makeSerialNpuPim();
    if (mode == "NeuPimsSerial")
        return makeNeuPimsSerial();
    if (mode == "NeuPimsSbi")
        return makeNeuPimsSbi();
    EXPECT_EQ(mode, "NpuOnly");
    return makeNpuOnly();
}

/** Every IterationResult field, compared for exact equality —
 * including the DRAM arbitration statistics the symmetry tests
 * predate. */
void
expectBitIdentical(const IterationResult &a, const IterationResult &b)
{
    EXPECT_EQ(a.windowCycles, b.windowCycles);
    EXPECT_EQ(a.perLayerCycles, b.perLayerCycles);
    EXPECT_EQ(a.iterationCycles, b.iterationCycles);
    EXPECT_EQ(a.throughputTokensPerSec, b.throughputTokensPerSec);
    EXPECT_EQ(a.npuUtil, b.npuUtil);
    EXPECT_EQ(a.pimUtil, b.pimUtil);
    EXPECT_EQ(a.bwUtil, b.bwUtil);
    EXPECT_EQ(a.vuUtil, b.vuUtil);
    EXPECT_EQ(a.totalFlops, b.totalFlops);
    EXPECT_EQ(a.dataBusBytes, b.dataBusBytes);
    EXPECT_EQ(a.pimBankBusyCycles, b.pimBankBusyCycles);
    for (int i = 0; i < dram::kNumCommandTypes; ++i)
        EXPECT_EQ(a.commands.counts[i], b.commands.counts[i])
            << "command type " << i;
    EXPECT_EQ(a.phases.qkvCycles, b.phases.qkvCycles);
    EXPECT_EQ(a.phases.mhaCycles, b.phases.mhaCycles);
    EXPECT_EQ(a.phases.projFfnCycles, b.phases.projFfnCycles);
    EXPECT_EQ(a.memSched.rowHits, b.memSched.rowHits);
    EXPECT_EQ(a.memSched.rowMisses, b.memSched.rowMisses);
    EXPECT_EQ(a.memSched.rowConflicts, b.memSched.rowConflicts);
    EXPECT_EQ(a.memSched.memCommands, b.memSched.memCommands);
    EXPECT_EQ(a.memSched.pimCommands, b.memSched.pimCommands);
    EXPECT_EQ(a.memSched.modeSwitches, b.memSched.modeSwitches);
    EXPECT_EQ(a.memSched.pimStallCycles, b.memSched.pimStallCycles);
    EXPECT_EQ(a.memSched.pimWasteCycles, b.memSched.pimWasteCycles);
    EXPECT_EQ(a.rowHitRate, b.rowHitRate);
    EXPECT_EQ(a.memBankUtil, b.memBankUtil);
    EXPECT_EQ(a.extraTrafficEndCycle, b.extraTrafficEndCycle);
}

/** Heterogeneous composition: every channel's KV lengths differ, so
 * neither symmetry folding nor lockstep uniformity helps — the
 * batching fallback paths (partial batches, serial segments) are all
 * exercised. */
BatchComposition
heterogeneousComposition(int channels)
{
    BatchComposition comp;
    comp.full.assign(channels, {});
    comp.sb1.assign(channels, {});
    comp.sb2.assign(channels, {});
    for (int ch = 0; ch < channels; ++ch) {
        int len = 64 + 16 * (ch % 7);
        comp.full[ch] = {len, len + 32};
        comp.sb1[ch] = {len};
        comp.sb2[ch] = {len + 32};
    }
    return comp;
}

class ParallelDifferential : public ::testing::TestWithParam<ModeParam>
{};

TEST_P(ParallelDifferential, ThreadedMatchesSerialAcrossMemScheds)
{
    auto llm = tinyModel();
    for (const char *sched : {"frfcfs", "pim-frfcfs", "paws"}) {
        DeviceConfig dev = GetParam().make();
        dev.flags.channelSymmetry = false;
        applyMemSched(dev, sched);

        DeviceConfig serial_dev = dev;
        serial_dev.simThreads = 1;
        DeviceConfig threaded_dev = dev;
        threaded_dev.simThreads = 4;

        auto comp = heterogeneousComposition(dev.org.channels);
        DeviceExecutor serial(serial_dev, llm, 1, llm.numLayers);
        DeviceExecutor threaded(threaded_dev, llm, 1, llm.numLayers);
        auto a = serial.runIteration(comp, 2, 1);
        auto b = threaded.runIteration(comp, 2, 1);
        SCOPED_TRACE(std::string(GetParam().name) + " / " + sched);
        expectBitIdentical(a, b);
    }
}

TEST_P(ParallelDifferential, UniformLockstepMatchesSerial)
{
    // The uniform case is where the batches actually form (every
    // controller kicks in the same cycle); symmetry folding is left
    // on so the sharded path composes with the class representative
    // mechanism exactly as the serving engine uses it.
    auto llm = tinyModel();
    DeviceConfig dev = GetParam().make();

    DeviceConfig serial_dev = dev;
    serial_dev.simThreads = 1;
    DeviceConfig threaded_dev = dev;
    threaded_dev.simThreads = 4;

    auto comp = uniformComposition(96, 192, dev.org.channels);
    DeviceExecutor serial(serial_dev, llm, 1, llm.numLayers);
    DeviceExecutor threaded(threaded_dev, llm, 1, llm.numLayers);
    auto a = serial.runIteration(comp, 3, 1);
    auto b = threaded.runIteration(comp, 3, 1);
    expectBitIdentical(a, b);
}

TEST(ParallelDifferentialTraffic, ExtraMemTrafficMatchesSerial)
{
    // Out-of-band swap/prefill traffic rides the same controllers as
    // the iteration's streams; its completion callbacks must replay
    // identically through the deferred-commit path.
    auto llm = tinyModel();
    DeviceConfig dev = makeNeuPimsSbi();
    dev.flags.channelSymmetry = false;

    ExtraMemTraffic extra;
    extra.swapInBytes = 3 << 20;
    extra.swapOutBytes = 2 << 20;
    extra.prefillWeightBytes = 1 << 20;

    DeviceConfig serial_dev = dev;
    serial_dev.simThreads = 1;
    DeviceConfig threaded_dev = dev;
    threaded_dev.simThreads = 4;

    auto comp = heterogeneousComposition(dev.org.channels);
    DeviceExecutor serial(serial_dev, llm, 1, llm.numLayers);
    DeviceExecutor threaded(threaded_dev, llm, 1, llm.numLayers);
    auto a = serial.runIteration(comp, extra, 2, 1);
    auto b = threaded.runIteration(comp, extra, 2, 1);
    EXPECT_GT(a.extraTrafficEndCycle, 0u);
    expectBitIdentical(a, b);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ParallelDifferential,
    ::testing::Values(ModeParam{"NpuOnly"}, ModeParam{"SerialNpuPim"},
                      ModeParam{"NeuPimsSerial"}, ModeParam{"NeuPimsSbi"}),
    [](const ::testing::TestParamInfo<ModeParam> &pinfo) {
        return std::string(pinfo.param.name);
    });

// --- serving-level differential with a fault schedule -----------------------

TEST(ParallelServingDifferential, FaultScheduleFinishCyclesMatch)
{
    auto llm = tinyModel();
    auto dev = DeviceConfig::neuPims();

    auto runOnce = [&](int threads) {
        DeviceConfig d = dev;
        d.simThreads = threads;
        auto latency = makeIterationModel(d, llm, /*measured=*/true);
        auto ds = runtime::shareGptDataset();
        ds.maxLength = 256;
        auto traffic =
            runtime::makeTraffic("replay", ds, 64.0, 10, 42);
        auto cfg = servingConfigFor(d, llm, 64);
        ServingOptions opt;
        opt.preempt = "recompute";
        opt.fault = "brownout:2:1:10,straggler:4:-1:12:2.0";
        opt.faultSeed = 42;
        applyServingOptions(cfg, opt);
        runtime::ServingEngine engine(cfg, *traffic, *latency);
        auto report = engine.run();
        std::vector<Cycle> finishes;
        for (RequestId id = 0; id < report.requestsSubmitted; ++id)
            finishes.push_back(engine.pool().request(id).finishCycle);
        return finishes;
    };

    auto serial = runOnce(1);
    auto threaded = runOnce(4);
    ASSERT_EQ(serial.size(), threaded.size());
    ASSERT_FALSE(serial.empty());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], threaded[i]) << "request " << i;
}

} // namespace
} // namespace neupims::core
