/**
 * @file
 * Parallelism explorer: sweeps tensor/pipeline-parallel configurations
 * of a multi-NeuPIMs system (§7) for a chosen model and batch, and
 * reports system throughput, per-device batch and the exposed
 * all-reduce cost — the experiment behind the paper's "prefer TP,
 * fall back to PP only when the model no longer fits" guidance.
 *
 *   ./examples/parallelism_explorer [model] [requests]
 *     model:    GPT3-7B | GPT3-13B | GPT3-30B | GPT3-175B
 *     requests: an integer >= 1 (default 256)
 *
 * Any other value stops the run with an error naming the argument.
 */

#include <cstdio>
#include <string>

#include "common/parse_flag.h"
#include "core/metrics.h"
#include "core/system.h"
#include "runtime/workload.h"

using namespace neupims;

int
main(int argc, char **argv)
{
    std::string model_name = argc > 1 ? argv[1] : "GPT3-13B";
    int requests = argc > 2 ? parseFlag("requests", argv[2], 1) : 256;

    auto llm = model::modelByName(model_name);
    auto dev = core::DeviceConfig::neuPims();
    runtime::WorkloadGenerator gen(runtime::shareGptDataset(), 42);
    auto samples = gen.warmBatch(requests);

    std::printf("Parallelism explorer: %s, %d requests, ShareGPT\n\n",
                llm.name.c_str(), requests);
    core::TableWriter table({"(TP,PP)", "devices", "per-dev batch",
                             "comm/layer (us)", "1k tokens/s",
                             "per device"},
                            16);
    table.printHeader();

    for (int tp : {1, 2, 4, 8}) {
        for (int pp : {1, 2, 4}) {
            if (llm.numHeads % tp != 0 || llm.numLayers % pp != 0)
                continue;
            // Skip configurations whose weights + KV exceed device
            // memory (the reason deeper parallelism exists at all).
            Bytes weights = llm.weightBytesPerLayer(tp) *
                            static_cast<Bytes>(llm.layersPerDevice(pp));
            if (weights > dev.org.deviceCapacity() / 2)
                continue;
            core::ParallelismConfig par;
            par.tp = tp;
            par.pp = pp;
            core::MultiDeviceSystem sys(dev, llm, par);
            auto res = sys.run(samples);
            char combo[32];
            std::snprintf(combo, sizeof(combo), "(%d,%d)", tp, pp);
            table.printRow(
                {combo, std::to_string(res.devices),
                 std::to_string(res.perDeviceBatch),
                 core::TableWriter::num(
                     cyclesToMicros(res.commCyclesPerLayer), 1),
                 core::TableWriter::num(
                     core::kiloTokensPerSec(res.tokensPerSec), 2),
                 core::TableWriter::num(
                     core::kiloTokensPerSec(res.tokensPerSec) /
                         res.devices,
                     2)});
        }
    }

    std::printf("\nreading: TP keeps the whole batch on every device "
                "(efficient GEMMs);\nPP shrinks per-device batches and "
                "with them systolic-array utilization.\n");
    return 0;
}
