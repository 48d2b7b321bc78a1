/**
 * @file
 * Quickstart: simulate one batched generation iteration of GPT3-30B
 * on the four systems the paper evaluates (GPU-only, NPU-only, naive
 * NPU+PIM, NeuPIMs) and print throughput and resource utilization.
 *
 *   ./examples/quickstart [batch] [dataset]
 *     batch:   requests in the warm batch, an integer >= 1 (default 256)
 *     dataset: ShareGPT | Alpaca (default ShareGPT)
 *
 * Any other value stops the run with an error naming the argument.
 */

#include <cstdio>

#include "common/parse_flag.h"
#include "core/batch_builder.h"
#include "core/device_config.h"
#include "core/executor.h"
#include "core/gpu_model.h"
#include "core/metrics.h"
#include "model/llm_config.h"
#include "runtime/workload.h"

using namespace neupims;

int
main(int argc, char **argv)
{
    int batch = argc > 1 ? parseFlag("batch", argv[1], 1) : 256;
    auto ds = runtime::datasetByName(argc > 2 ? argv[2] : "ShareGPT");

    auto llm = model::gpt3_30b();
    const int tp = llm.defaultTp;
    const int pp = llm.defaultPp;

    runtime::WorkloadGenerator gen(ds, /*seed=*/42);
    auto samples = gen.warmBatch(batch);

    double avg_seq = 0.0;
    for (const auto &s : samples)
        avg_seq += s.inputLength + s.generatedTokens;
    avg_seq /= static_cast<double>(samples.size());

    std::printf("NeuPIMs quickstart: %s, %s, batch %d "
                "(avg context %.0f tokens), TP=%d PP=%d\n\n",
                llm.name.c_str(), ds.name.c_str(), batch, avg_seq, tp,
                pp);

    core::TableWriter table(
        {"system", "tokens/s", "NPU util", "PIM util", "BW util",
         "iter (us)"},
        13);
    table.printHeader();

    // GPU-only: analytic roofline baseline (see DESIGN.md).
    core::GpuModel gpu{core::GpuConfig{}};
    double gpu_tput = gpu.throughput(llm, tp, pp, batch, avg_seq);
    table.printRow({"GPU-only", core::TableWriter::num(gpu_tput, 0), "-",
                    "-", "-", "-"});

    for (const auto &dev :
         {core::DeviceConfig::npuOnly(), core::DeviceConfig::naiveNpuPim(),
          core::DeviceConfig::neuPims()}) {
        auto est = core::latencyParamsFor(dev, llm, tp);
        auto comp = core::buildComposition(
            samples, dev.org.channels, dev.flags.minLoadPacking, est);
        core::DeviceExecutor exec(dev, llm, tp,
                                  llm.layersPerDevice(pp));
        auto res = exec.runIteration(comp);
        table.printRow(
            {dev.name, core::TableWriter::num(res.throughputTokensPerSec, 0),
             core::TableWriter::percent(res.npuUtil),
             dev.kind == core::SystemKind::NpuPim
                 ? core::TableWriter::percent(res.pimUtil)
                 : "-",
             core::TableWriter::percent(res.bwUtil),
             core::TableWriter::num(cyclesToMicros(res.iterationCycles),
                                    0)});
        if (!dev.flags.subBatchInterleaving) {
            std::printf("    phases: qkv %5.0fus (npu %4.1f%%) | "
                        "mha %5.0fus (npu %4.1f%%, pim %4.1f%%) | "
                        "proj+ffn %5.0fus (npu %4.1f%%)\n",
                        cyclesToMicros(res.phases.qkvCycles),
                        res.phases.npuUtilQkv * 100,
                        cyclesToMicros(res.phases.mhaCycles),
                        res.phases.npuUtilMha * 100,
                        res.phases.pimUtilMha * 100,
                        cyclesToMicros(res.phases.projFfnCycles),
                        res.phases.npuUtilProjFfn * 100);
        }
    }

    std::printf("\nDone. See bench/ for the full paper reproduction.\n");
    return 0;
}
