/**
 * @file
 * Figure 9 reproduction: C/A-bus command traffic of the fine-grained
 * baseline PIM interface (PIM_DOTPRODUCT + PIM_RDRESULT streams)
 * versus the NeuPIMs composite PIM_GEMV interface, across GEMV sizes.
 *
 * Paper's claim: the composite command collapses per-row command
 * traffic so the C/A bus is mostly idle and memory commands can
 * interleave (Fig. 9b); the fine-grained stream congests the bus.
 */

#include <cstdio>

#include "common/event_queue.h"
#include "core/metrics.h"
#include "dram/controller.h"

using namespace neupims;
using namespace neupims::dram;

namespace {

struct TrafficResult
{
    std::uint64_t pimCommands = 0;
    Cycle kernelCycles = 0;
    double caBusyFraction = 0.0;
};

TrafficResult
measure(int row_tiles, bool composite)
{
    EventQueue eq;
    TimingParams t;
    Organization org;
    MemoryController mc(eq, t, org, ControllerConfig::make(true));
    Cycle done = 0;
    PimJob job;
    job.rowTiles = row_tiles;
    job.banksUsed = t.pimParallelBanks;
    job.gwrites = 2;
    job.resultBursts = 8;
    job.composite = composite;
    job.header = composite;
    job.onComplete = [&](Cycle c) { done = c; };
    mc.enqueuePim(std::move(job));
    eq.run();

    TrafficResult r;
    r.pimCommands = mc.channel().commandCounts().totalPim();
    r.kernelCycles = done;
    // The window [0, done) leaves out only the kernel's closing
    // PIM_PRECHARGE, which issues at or after done.
    r.caBusyFraction =
        static_cast<double>(mc.channel().caBusyCycles() - t.caPimCmd) /
        static_cast<double>(std::max<Cycle>(done, 1));
    return r;
}

} // namespace

int
main()
{
    std::printf("=== Figure 9: PIM command traffic, baseline "
                "fine-grained vs composite PIM_GEMV ===\n\n");
    core::TableWriter table({"GEMV rows", "iface", "PIM cmds",
                             "C/A busy", "cycles", "cmd reduction"},
                            13);
    table.printHeader();

    for (int rows : {64, 256, 1024, 4096}) {
        auto fine = measure(rows, false);
        auto comp = measure(rows, true);
        table.printRow({std::to_string(rows), "baseline",
                        std::to_string(fine.pimCommands),
                        core::TableWriter::percent(fine.caBusyFraction),
                        std::to_string(fine.kernelCycles), "1.0x"});
        table.printRow(
            {std::to_string(rows), "PIM_GEMV",
             std::to_string(comp.pimCommands),
             core::TableWriter::percent(comp.caBusyFraction),
             std::to_string(comp.kernelCycles),
             core::TableWriter::num(
                 static_cast<double>(fine.pimCommands) /
                     static_cast<double>(comp.pimCommands),
                 1) +
                 "x"});
    }

    std::printf("\npaper shape: composite PIM_GEMV leaves the C/A bus "
                "mostly idle\n(memory commands can interleave) and "
                "shortens the kernel.\n");
    return 0;
}
