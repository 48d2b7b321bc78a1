/**
 * @file
 * Table 5 + §8.2 overheads reproduction: average memory power of the
 * NPU-only system (plain HBM) versus NeuPIMs (dual-row-buffer PIM),
 * the resulting energy verdict, and the CACTI-style area overhead of
 * the dual row buffer.
 *
 * Paper's numbers: 364.1 mW vs 634.8 mW per channel (1.8x power) for
 * 2.4x speedup -> ~25% energy reduction; 3.11% bank area overhead.
 */

#include <cstdio>

#include "analysis/area_model.h"
#include "bench_common.h"
#include "dram/power_model.h"

using namespace neupims;

int
main()
{
    auto llm = model::gpt3_30b();
    auto samples = bench::warmBatch(runtime::shareGptDataset(), 256);

    std::printf("=== Table 5: memory power, energy and area overheads "
                "(%s, batch 256, ShareGPT) ===\n\n",
                llm.name.c_str());

    struct Run
    {
        const char *label;
        core::DeviceConfig dev;
        double powerMw = 0.0;
        double tput = 0.0;
    };
    Run runs[] = {
        {"NPU-only HBM (non-PIM)", core::DeviceConfig::npuOnly(), 0, 0},
        {"NeuPIMs dual-row-buffer PIM", core::DeviceConfig::neuPims(), 0,
         0},
    };

    for (auto &r : runs) {
        auto est = core::latencyParamsFor(r.dev, llm, llm.defaultTp);
        auto comp = core::buildComposition(samples, r.dev.org.channels,
                                           r.dev.flags.minLoadPacking,
                                           est);
        core::DeviceExecutor exec(r.dev, llm, llm.defaultTp,
                                  llm.layersPerDevice(llm.defaultPp));
        auto res = exec.runIteration(comp);
        r.tput = res.throughputTokensPerSec;

        dram::PowerModel power{dram::PowerParams{}, r.dev.timing};
        double total_mw = 0.0;
        for (const auto &act : res.channelActivity)
            total_mw += power.averagePowerMw(act);
        r.powerMw = total_mw /
                    static_cast<double>(res.channelActivity.size());
    }

    core::TableWriter table({"baseline", "avg power/chan", "tokens/s"},
                            26);
    table.printHeader();
    for (const auto &r : runs) {
        table.printRow({r.label,
                        core::TableWriter::num(r.powerMw, 1) + " mW",
                        core::TableWriter::num(r.tput, 0)});
    }

    double power_ratio = runs[1].powerMw / runs[0].powerMw;
    double speedup = runs[1].tput / runs[0].tput;
    double energy = power_ratio / speedup;
    std::printf("\npower ratio %.2fx, speedup %.2fx -> energy ratio "
                "%.2fx (%.0f%% %s)\n",
                power_ratio, speedup, energy,
                std::abs(1.0 - energy) * 100.0,
                energy < 1.0 ? "energy reduction" : "energy increase");
    std::printf("paper: 1.8x power, 2.4x speedup -> 25%% energy "
                "reduction.\n\n");

    auto area = analysis::dualRowBufferArea();
    std::printf("area: dual row buffer adds %.2f%% per bank "
                "(paper: 3.11%% via CACTI 7 @ 22 nm)\n",
                area.overheadFraction * 100.0);
    return 0;
}
