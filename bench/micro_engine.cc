/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself:
 * event-queue throughput (two-level calendar queue vs the seed's
 * std::function heap), DRAM command throughput of one controller and
 * of the whole device, PIM kernel execution, systolic-array model
 * evaluation, layer compilation, the full runIteration path and the
 * serving runtime's cost per iteration boundary. These guard the
 * simulator's own performance — the Fig. 12 grid replays hundreds of
 * millions of DRAM commands — and track the perf trajectory.
 *
 * Run with no arguments to emit BENCH_engine.json (the tracked
 * artifact); any explicit --benchmark_* flags suppress the default
 * output file. The Fig. 12-style sweeps are tagged "Grid" and can be
 * excluded in smoke runs via
 * --benchmark_filter=-.*Grid.*
 */

#include <benchmark/benchmark.h>

#include <time.h>

#include <string>
#include <vector>

#include "common/event_queue.h"
#include "common/heap_event_queue.h"
#include "core/batch_builder.h"
#include "core/device_config.h"
#include "core/executor.h"
#include "core/serving_setup.h"
#include "dram/controller.h"
#include "dram/hbm.h"
#include "model/llm_config.h"
#include "npu/dma.h"
#include "npu/systolic_array.h"
#include "runtime/serving_engine.h"

using namespace neupims;
using namespace neupims::dram;

namespace {

// ---------------------------------------------------------------------------
// Event queue: bucketed calendar queue vs the seed heap reference.
// ---------------------------------------------------------------------------

/** Schedule @p events one cycle apart on @p eq, from its current
 * cycle on, and run them. */
template <typename Queue>
void
scheduleRunOn(Queue &eq, std::int64_t events)
{
    const Cycle base = eq.now();
    int sink = 0;
    for (std::int64_t i = 0; i < events; ++i)
        eq.schedule(base + static_cast<Cycle>(i), [&sink] { ++sink; });
    eq.run();
    benchmark::DoNotOptimize(sink);
}

/** The same on a fresh queue. */
template <typename Queue>
void
scheduleRun(std::int64_t events)
{
    Queue eq;
    scheduleRunOn(eq, events);
}

/**
 * One queue serves every iteration, after an untimed warm-up pass:
 * a fresh queue's large buckets are fresh mmap'd pages, and their
 * first-touch faults would be timed as much as the queue.
 */
template <typename Queue>
void
scheduleRunWorkload(benchmark::State &state)
{
    Queue eq;
    scheduleRunOn(eq, state.range(0));
    for (auto _ : state)
        scheduleRunOn(eq, state.range(0));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    scheduleRunWorkload<EventQueue>(state);
}
BENCHMARK(BM_EventQueueScheduleRun)
    ->Arg(1024)
    ->Arg(65536)
    ->Arg(262144);

void
BM_EventQueueScheduleRunHeap(benchmark::State &state)
{
    scheduleRunWorkload<HeapEventQueue>(state);
}
BENCHMARK(BM_EventQueueScheduleRunHeap)
    ->Arg(1024)
    ->Arg(65536)
    ->Arg(262144);

/** This thread's CPU seconds (time descheduled does not count). */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/**
 * Both queues on the same workload inside one benchmark run: every
 * iteration times one schedule-and-run on each, alternating which
 * goes first, so host drift hits both alike. heap_over_bucketed is
 * the heap's summed thread CPU time over the bucketed queue's (CI
 * gates it); two separate benchmark runs compared across each other
 * can see a different host.
 */
void
BM_EventQueueHeapOverBucketed(benchmark::State &state)
{
    const std::int64_t events = state.range(0);
    double bucketed = 0.0;
    double heap = 0.0;
    bool heapFirst = false;
    auto timed = [](auto run) {
        double start = threadCpuSeconds();
        run();
        return threadCpuSeconds() - start;
    };
    for (auto _ : state) {
        if (heapFirst)
            heap += timed([events] { scheduleRun<HeapEventQueue>(events); });
        bucketed += timed([events] { scheduleRun<EventQueue>(events); });
        if (!heapFirst)
            heap += timed([events] { scheduleRun<HeapEventQueue>(events); });
        heapFirst = !heapFirst;
    }
    state.counters["heap_over_bucketed"] =
        bucketed > 0.0 ? heap / bucketed : 0.0;
    state.SetItemsProcessed(state.iterations() * 2 * events);
}
BENCHMARK(BM_EventQueueHeapOverBucketed)->Arg(65536);

/**
 * The simulator's steady-state pattern: many concurrent short-delta
 * reschedule chains (controller kicks, stream completions) with
 * moderate-size captures.
 */
template <typename Queue>
void
chainedWorkload(benchmark::State &state)
{
    const int chains = static_cast<int>(state.range(0));
    const int hops = static_cast<int>(state.range(1));
    for (auto _ : state) {
        Queue eq;
        long sink = 0;
        for (int c = 0; c < chains; ++c) {
            auto body =
                std::make_shared<std::function<void(int)>>();
            *body = [&eq, &sink, body](int left) {
                ++sink;
                if (left > 0) {
                    eq.scheduleIn(
                        17 + static_cast<Cycle>(left % 191),
                        [body, left] { (*body)(left - 1); });
                }
            };
            eq.schedule(static_cast<Cycle>(c % 64),
                        [body, hops] { (*body)(hops); });
        }
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * chains *
                            (hops + 1));
}

void
BM_EventQueueChained(benchmark::State &state)
{
    chainedWorkload<EventQueue>(state);
}
BENCHMARK(BM_EventQueueChained)->Args({256, 1000});

void
BM_EventQueueChainedHeap(benchmark::State &state)
{
    chainedWorkload<HeapEventQueue>(state);
}
BENCHMARK(BM_EventQueueChainedHeap)->Args({256, 1000});

// ---------------------------------------------------------------------------
// DRAM controller and PIM kernels.
// ---------------------------------------------------------------------------

void
BM_MemStream(benchmark::State &state)
{
    const int rows = static_cast<int>(state.range(0));
    for (auto _ : state) {
        EventQueue eq;
        TimingParams t;
        Organization org;
        MemoryController mc(eq, t, org, ControllerConfig::make(true));
        for (int i = 0; i < rows; ++i) {
            MemJob job;
            job.bank = i % org.banksPerChannel;
            job.row = i / org.banksPerChannel;
            job.bursts = org.burstsPerRow();
            mc.enqueueMem(std::move(job));
        }
        eq.run();
        benchmark::DoNotOptimize(mc.completedMemJobs());
    }
    state.SetItemsProcessed(state.iterations() * rows);
    state.SetBytesProcessed(state.iterations() * rows * 1024);
}
BENCHMARK(BM_MemStream)->Arg(1024)->Arg(16384);

/** One all-channel read stream of @p bursts-burst rows on a fresh
 * device, with @p pim beside it one 512-tile kernel per channel under
 * paws; adds its DRAM commands and row jobs to @p commands and
 * @p rows. */
void
deviceStream(int bursts, double &commands, double &rows, bool pim = false)
{
    EventQueue eq;
    MemConfig cfg;
    if (pim)
        cfg.ctrl.sched = MemSchedKind::Paws;
    HbmStack hbm(eq, cfg);
    npu::DmaEngine dma(eq, hbm);
    dma.streamAllChannels(8_MiB, false, bursts, [](Cycle) {});
    for (ChannelId ch = 0; pim && ch < hbm.numChannels(); ++ch) {
        PimJob job;
        job.rowTiles = 512;
        hbm.controller(ch).enqueuePim(std::move(job));
    }
    eq.run();
    for (std::uint64_t n : hbm.totalCommandCounts().counts)
        commands += static_cast<double>(n);
    for (ChannelId ch = 0; ch < hbm.numChannels(); ++ch)
        rows += static_cast<double>(hbm.controller(ch).completedMemJobs());
}

/**
 * The device path BM_MemStream misses: an HbmStack of 32 unfolded
 * channels fed by the DMA engine, so MEM-only stretches run as epochs
 * with burst trains (DESIGN.md §3.4). One all-channel read stream of
 * 16-burst (weight) or 2-burst (strided GEMV) rows, one stream
 * descriptor per channel (DESIGN.md §3.5); reports host time per DRAM
 * command and per row job.
 */
void
BM_DeviceStream(benchmark::State &state)
{
    const int bursts = static_cast<int>(state.range(0));
    double commands = 0.0;
    double rows = 0.0;
    for (auto _ : state)
        deviceStream(bursts, commands, rows);
    // Seconds per command and per row: printed with an SI prefix
    // (e.g. "53ns").
    const auto per = benchmark::Counter::kIsRate | benchmark::Counter::kInvert;
    state.counters["time_per_dram_cmd"] = benchmark::Counter(commands, per);
    state.counters["time_per_row"] = benchmark::Counter(rows, per);
}
BENCHMARK(BM_DeviceStream)->Arg(16)->Arg(2)->ArgNames({"bursts"});

/**
 * Both BM_DeviceStream row types inside one benchmark run, timed as
 * BM_EventQueueHeapOverBucketed times its queues: every iteration
 * streams 16-burst and 2-burst rows, alternating which goes first.
 * burst16_over_burst2 is the 16-burst rows' thread CPU time per row
 * over the 2-burst rows' (CI gates it): a burst train costs one step
 * whatever its length, so it stays near 1.
 */
void
BM_DeviceStreamBurst16OverBurst2(benchmark::State &state)
{
    double commands = 0.0;
    double rows16 = 0.0, rows2 = 0.0;
    double time16 = 0.0, time2 = 0.0;
    bool shortFirst = false;
    auto timed = [&commands](int bursts, double &rows) {
        double start = threadCpuSeconds();
        deviceStream(bursts, commands, rows);
        return threadCpuSeconds() - start;
    };
    for (auto _ : state) {
        if (shortFirst)
            time2 += timed(2, rows2);
        time16 += timed(16, rows16);
        if (!shortFirst)
            time2 += timed(2, rows2);
        shortFirst = !shortFirst;
    }
    state.counters["burst16_over_burst2"] =
        time2 > 0.0 ? (time16 / rows16) / (time2 / rows2) : 0.0;
}
BENCHMARK(BM_DeviceStreamBurst16OverBurst2);

/**
 * The 16-burst stream with and without a PIM kernel beside it on every
 * channel, timed as BM_DeviceStreamBurst16OverBurst2 times its row
 * types. beside_pim_over_mem_only is the paws stream's thread CPU time
 * per row over the MEM-only stream's (CI gates it): epochs run beside
 * the kernels (DESIGN.md §3.4), so it stays near 1.
 */
void
BM_DeviceStreamBesidePimOverMemOnly(benchmark::State &state)
{
    double commands = 0.0;
    double rowsPim = 0.0, rowsMem = 0.0;
    double timePim = 0.0, timeMem = 0.0;
    bool memFirst = false;
    auto timed = [&commands](bool pim, double &rows) {
        double start = threadCpuSeconds();
        deviceStream(16, commands, rows, pim);
        return threadCpuSeconds() - start;
    };
    for (auto _ : state) {
        if (memFirst)
            timeMem += timed(false, rowsMem);
        timePim += timed(true, rowsPim);
        if (!memFirst)
            timeMem += timed(false, rowsMem);
        memFirst = !memFirst;
    }
    state.counters["beside_pim_over_mem_only"] =
        timeMem > 0.0 ? (timePim / rowsPim) / (timeMem / rowsMem) : 0.0;
}
BENCHMARK(BM_DeviceStreamBesidePimOverMemOnly);

void
BM_PimKernel(benchmark::State &state)
{
    const bool composite = state.range(1) != 0;
    for (auto _ : state) {
        EventQueue eq;
        TimingParams t;
        Organization org;
        MemoryController mc(eq, t, org,
                            ControllerConfig::make(composite));
        PimJob job;
        job.rowTiles = static_cast<int>(state.range(0));
        job.banksUsed = t.pimParallelBanks;
        job.gwrites = 2;
        job.resultBursts = 8;
        job.composite = composite;
        job.header = composite;
        mc.enqueuePim(std::move(job));
        eq.run();
        benchmark::DoNotOptimize(mc.completedPimJobs());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PimKernel)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({8192, 1});

void
BM_SystolicArrayModel(benchmark::State &state)
{
    npu::SystolicArrayPool pool(npu::SystolicArrayConfig{}, 8);
    std::int64_t m = state.range(0);
    Cycle total = 0;
    for (auto _ : state) {
        npu::GemmShape shape{m, 7168, 7168};
        total += pool.gemmCycles(shape);
        benchmark::DoNotOptimize(total);
    }
}
BENCHMARK(BM_SystolicArrayModel)->Arg(64)->Arg(512);

// ---------------------------------------------------------------------------
// Compiler: one layer compilation of a 512-request batch.
// ---------------------------------------------------------------------------

void
BM_CompileLayer(benchmark::State &state)
{
    auto llm = model::gpt3_30b();
    model::MemShape mem;
    model::Compiler compiler(llm, llm.defaultTp, mem);
    auto comp = core::uniformComposition(512, 512, mem.channels);
    std::uint64_t sink = 0;
    for (auto _ : state) {
        sink += compiler.compileLayer(comp.full).mha.totalSoftmaxElems;
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompileLayer);

// ---------------------------------------------------------------------------
// Serving runtime: scheduler, KV cache and analytic model per boundary.
// ---------------------------------------------------------------------------

/**
 * One seeded analytic serving run per iteration — simbench's
 * serve_session_kv shape (session traffic, prefix sharing, KV halved
 * with recompute preemption, edf) at 1,000 requests — so the cost of
 * an iteration boundary shows without the event engine.
 * time_per_boundary is host time per scheduled iteration. Arrivals
 * are generated once, outside the timed region.
 */
void
BM_ServingBoundary(benchmark::State &state)
{
    const auto llm = model::gpt3_13b();
    const auto &dev = core::servingBackendByName("NeuPIMs+SBI").device;
    core::ServingRun run;
    run.traffic = "session";
    run.maxLen = 512;
    run.rate = 28.0;
    run.requests = 1000;
    run.classes = "two-tier";
    run.options.preempt = "recompute";
    run.options.policy = "edf";
    run.options.kvScale = 2;
    run.options.prefixShare = true;
    core::ServingSetup setup = core::setupServingRun(dev, llm, run);
    const std::vector<runtime::ArrivalEvent> arrivals =
        setup.traffic->drain();
    double boundaries = 0.0;
    for (auto _ : state) {
        state.PauseTiming();
        runtime::ReplayTraffic traffic("session", arrivals);
        auto latency = core::makeIterationModel(dev, llm);
        runtime::ServingEngine engine(setup.config, traffic, *latency);
        state.ResumeTiming();
        boundaries += static_cast<double>(engine.run().iterations);
        benchmark::DoNotOptimize(boundaries);
    }
    state.counters["time_per_boundary"] = benchmark::Counter(
        boundaries,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ServingBoundary)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Full engine: runIteration on Fig. 12-style cells and grid sweeps.
// ---------------------------------------------------------------------------

core::IterationResult
runCell(const core::DeviceConfig &dev, const model::LlmConfig &llm,
        int batch, int context)
{
    auto comp = core::uniformComposition(batch, context,
                                         dev.org.channels);
    core::DeviceExecutor exec(dev, llm, llm.defaultTp,
                              llm.layersPerDevice(llm.defaultPp));
    int window = dev.flags.subBatchInterleaving ? 3 : 2;
    return exec.runIteration(comp, window, 1);
}

void
BM_RunIteration(benchmark::State &state)
{
    auto llm = model::gpt3_7b();
    auto dev = core::DeviceConfig::neuPims();
    Cycle sink = 0;
    for (auto _ : state) {
        sink += runCell(dev, llm, 256, 512).iterationCycles;
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RunIteration)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/**
 * A reduced Fig. 12 grid (all three simulated systems, the paper's
 * batch axis, ShareGPT/Alpaca-scale contexts) on uniform batches,
 * which fold to a few simulated channels (DESIGN.md §5).
 */
void
BM_Fig12GridSweep(benchmark::State &state)
{
    auto llm = model::gpt3_7b();
    const std::vector<core::DeviceConfig> systems = {
        core::DeviceConfig::npuOnly(),
        core::DeviceConfig::naiveNpuPim(),
        core::DeviceConfig::neuPims(),
    };

    Cycle sink = 0;
    for (auto _ : state) {
        for (const auto &dev : systems) {
            for (int batch : {64, 128, 256, 384, 512}) {
                for (int context : {128, 512}) {
                    sink += runCell(dev, llm, batch, context)
                                .iterationCycles;
                }
            }
        }
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 30);
}
BENCHMARK(BM_Fig12GridSweep)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);

} // namespace

int
main(int argc, char **argv)
{
    // Default to emitting the tracked perf artifact; explicit
    // --benchmark_* flags take full control instead.
    std::vector<std::string> args(argv, argv + argc);
    bool has_flags = false;
    for (const auto &a : args) {
        if (a.rfind("--benchmark_", 0) == 0)
            has_flags = true;
    }
    if (!has_flags) {
        args.push_back("--benchmark_out=BENCH_engine.json");
        args.push_back("--benchmark_out_format=json");
    }
    std::vector<char *> argv2;
    argv2.reserve(args.size());
    for (auto &a : args)
        argv2.push_back(a.data());
    int argc2 = static_cast<int>(argv2.size());
    benchmark::Initialize(&argc2, argv2.data());
    if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data()))
        return 1;
    // Build type of *this* binary (library_build_type reports the
    // system benchmark library's, which stays "debug" regardless):
    // CI's staleness check requires a committed artifact built with
    // optimizations on.
#ifdef NDEBUG
    benchmark::AddCustomContext("build_type", "release");
#else
    benchmark::AddCustomContext("build_type", "debug");
#endif
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
