/**
 * @file
 * Figure 12 reproduction (a-j): generation throughput of GPU-only,
 * NPU-only, naive NPU+PIM and NeuPIMs across both datasets (Alpaca,
 * ShareGPT), batch sizes {64,128,256,384,512} and all four GPT-3
 * variants (Table 3 parallelization).
 *
 * Paper's shape: GPU-only and NPU-only within ~20% of each other;
 * NPU+PIM ~1.5x NPU-only on average; NeuPIMs beats NPU+PIM by 13% to
 * 3x with gains growing with batch size and with the longer-sequence
 * dataset (ShareGPT); headline averages: NeuPIMs = 3x GPU-only,
 * 2.4x NPU-only, 1.6x NPU+PIM.
 */

#include <cstdio>

#include "bench_common.h"

using namespace neupims;

int
main()
{
    std::printf("=== Figure 12: throughput comparison (tokens/s) "
                "===\n\n");

    std::vector<int> batches = {64, 128, 256, 384, 512};
    auto models = model::allGpt3Models();
    if (bench::fastMode()) {
        batches = {64, 256, 512};
        models = {model::gpt3_7b(), model::gpt3_30b()};
    }

    std::vector<double> vs_gpu, vs_npu, vs_pim;

    for (const auto &ds_name : {"Alpaca", "ShareGPT"}) {
        auto ds = runtime::datasetByName(ds_name);
        for (const auto &llm : models) {
            std::printf("--- %s, %s (TP=%d, PP=%d) ---\n", ds.name.c_str(),
                        llm.name.c_str(), llm.defaultTp, llm.defaultPp);
            core::TableWriter table({"batch", "GPU-only", "NPU-only",
                                     "NPU+PIM", "NeuPIMs", "NeuPIMs/PIM"},
                                    12);
            table.printHeader();
            for (int batch : batches) {
                auto samples = bench::warmBatch(ds, batch);
                int tp = llm.defaultTp;
                int pp = llm.defaultPp;

                double gpu = bench::gpuThroughput(llm, tp, pp, samples);
                auto npu = bench::runSystem(core::DeviceConfig::npuOnly(),
                                            llm, tp, pp, samples);
                auto pim = bench::runSystem(
                    core::DeviceConfig::naiveNpuPim(), llm, tp, pp,
                    samples);
                auto neu = bench::runSystem(core::DeviceConfig::neuPims(),
                                            llm, tp, pp, samples);

                double nt = neu.throughputTokensPerSec;
                vs_gpu.push_back(nt / gpu);
                vs_npu.push_back(nt / npu.throughputTokensPerSec);
                vs_pim.push_back(nt / pim.throughputTokensPerSec);

                table.printRow(
                    {std::to_string(batch),
                     core::TableWriter::num(gpu, 0),
                     core::TableWriter::num(npu.throughputTokensPerSec, 0),
                     core::TableWriter::num(pim.throughputTokensPerSec, 0),
                     core::TableWriter::num(nt, 0),
                     core::TableWriter::num(
                         nt / pim.throughputTokensPerSec, 2) +
                         "x"});
            }
            std::printf("\n");
        }
    }

    std::printf("geomean speedups of NeuPIMs:  vs GPU-only %.2fx  "
                "(paper 3x)\n"
                "                              vs NPU-only %.2fx  "
                "(paper 2.4x)\n"
                "                              vs NPU+PIM  %.2fx  "
                "(paper 1.6x)\n",
                core::geomean(vs_gpu), core::geomean(vs_npu),
                core::geomean(vs_pim));
    return 0;
}
