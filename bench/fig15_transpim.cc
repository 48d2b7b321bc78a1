/**
 * @file
 * Figure 15 reproduction: speedup of NeuPIMs over TransPIM (PIM-only
 * transformer acceleration) on both datasets across batch sizes.
 *
 * Paper's shape: NeuPIMs is faster by 79x to 431x (average 228x),
 * with the gap growing with batch size — TransPIM's token-based
 * dataflow re-sweeps the layer weights through the banks for every
 * token, so batching buys it nothing.
 */

#include <cstdio>

#include "bench_common.h"
#include "core/transpim_executor.h"

using namespace neupims;

int
main()
{
    std::printf("=== Figure 15: NeuPIMs speedup over TransPIM ===\n\n");

    auto llm = model::gpt3_7b();
    std::vector<int> batches = {64, 128, 256, 384, 512};
    if (bench::fastMode())
        batches = {64, 256, 512};

    core::TransPimExecutor transpim{core::DeviceConfig::neuPims()};
    std::vector<double> speedups;

    for (const auto &ds_name : {"Alpaca", "ShareGPT"}) {
        auto ds = runtime::datasetByName(ds_name);
        std::printf("--- %s, %s ---\n", ds.name.c_str(),
                    llm.name.c_str());
        core::TableWriter table(
            {"batch", "TransPIM tok/s", "NeuPIMs tok/s", "speedup"}, 15);
        table.printHeader();
        for (int batch : batches) {
            auto samples = bench::warmBatch(ds, batch);
            double tp_tput = transpim.throughput(
                llm, llm.defaultTp, llm.defaultPp, batch,
                bench::avgContext(samples));
            auto neu = bench::runSystem(core::DeviceConfig::neuPims(),
                                        llm, llm.defaultTp,
                                        llm.defaultPp, samples);
            double speedup = neu.throughputTokensPerSec / tp_tput;
            speedups.push_back(speedup);
            table.printRow({std::to_string(batch),
                            core::TableWriter::num(tp_tput, 1),
                            core::TableWriter::num(
                                neu.throughputTokensPerSec, 0),
                            core::TableWriter::num(speedup, 0) + "x"});
        }
        std::printf("\n");
    }

    double lo = speedups[0], hi = speedups[0];
    for (double s : speedups) {
        lo = std::min(lo, s);
        hi = std::max(hi, s);
    }
    std::printf("range %.0fx - %.0fx, geomean %.0fx "
                "(paper: 79x - 431x, average 228x)\n",
                lo, hi, core::geomean(speedups));
    return 0;
}
