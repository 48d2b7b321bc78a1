/**
 * @file
 * PIM GEMV microbenchmark: drives the HBM-PIM substrate directly — a
 * timing comparison of the baseline fine-grained interface vs the
 * NeuPIMs composite interface, with and without concurrent memory
 * traffic (the dual-row-buffer headline feature).
 *
 *   ./examples/pim_gemv_microbench [seq_len]
 *
 * seq_len (default 512) must be an integer in [1, 16384]; anything else
 * stops the run with an error naming the argument.
 */

#include <cstdio>

#include "common/event_queue.h"
#include "common/parse_flag.h"
#include "dram/controller.h"

using namespace neupims;
using namespace neupims::dram;

namespace {

struct RunResult
{
    Cycle pimDone = 0;
    Cycle memDone = 0;
};

RunResult
runKernel(int row_tiles, bool dual, bool composite, bool with_mem)
{
    EventQueue eq;
    TimingParams t;
    Organization org;
    MemoryController mc(eq, t, org, ControllerConfig::make(dual));
    RunResult r;

    PimJob job;
    job.rowTiles = row_tiles;
    job.banksUsed = t.pimParallelBanks;
    job.gwrites = 2;
    job.resultBursts = 8;
    job.composite = composite;
    job.header = composite;
    job.onComplete = [&](Cycle c) { r.pimDone = c; };
    mc.enqueuePim(std::move(job));

    if (with_mem) {
        // A concurrent weight stream of 512 rows, as the NPU would
        // generate.
        MemJob m;
        m.row = 100;
        m.rows = 512;
        m.bursts = org.burstsPerRow();
        m.onComplete = [&](Cycle c) { r.memDone = c; };
        mc.enqueueMem(std::move(m));
    }
    eq.run();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    int seq_len = argc > 1 ? parseFlag("seq_len", argv[1], 1, 16384) : 512;

    // seq_len rows of 1024 fp16 elements (2 KiB each) in 1 KiB
    // bank-row tiles.
    int tiles = seq_len * 2;
    std::printf("== timing: %d bank-row tiles (seq %d, 1024 elems) "
                "==\n",
                tiles, seq_len);

    auto base = runKernel(tiles, false, false, false);
    auto comp = runKernel(tiles, true, true, false);
    std::printf("  baseline fine-grained kernel: %8lu cycles\n",
                static_cast<unsigned long>(base.pimDone));
    std::printf("  NeuPIMs composite kernel:     %8lu cycles "
                "(%.2fx faster)\n",
                static_cast<unsigned long>(comp.pimDone),
                static_cast<double>(base.pimDone) /
                    static_cast<double>(comp.pimDone));

    auto blocked = runKernel(tiles, false, false, true);
    auto dual = runKernel(tiles, true, true, true);
    std::printf("\n  with a concurrent 512-row weight stream:\n");
    std::printf("    blocked PIM:  stream finishes at %8lu "
                "(behind the kernel)\n",
                static_cast<unsigned long>(blocked.memDone));
    std::printf("    dual buffers: stream finishes at %8lu "
                "(%.1fx earlier, kernel at %lu)\n",
                static_cast<unsigned long>(dual.memDone),
                static_cast<double>(blocked.memDone) /
                    static_cast<double>(dual.memDone),
                static_cast<unsigned long>(dual.pimDone));
    return 0;
}
