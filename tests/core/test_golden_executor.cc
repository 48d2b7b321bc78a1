/**
 * @file
 * Golden regression of the event-driven execution engine itself:
 * cycle counts, utilizations, traffic and DRAM command totals of
 * DeviceExecutor::runIteration on small canonical compositions across
 * all four backends, diffed byte-for-byte against
 * tests/golden/executor_iterations.txt. Catches any change to the
 * engine's timing behavior that the (faster) serving goldens — which
 * run the analytic model — cannot see.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/golden_util.h"
#include "core/serving_setup.h"

namespace neupims {
namespace {

std::string
serializeIteration(const std::string &backend_name,
                   const core::DeviceConfig &dev, int batch, int seq)
{
    auto llm = model::gpt3_13b();
    auto comp = core::uniformComposition(batch, seq, dev.org.channels);
    core::DeviceExecutor exec(dev, llm, llm.defaultTp,
                              llm.layersPerDevice(llm.defaultPp));
    auto r = exec.runIteration(
        comp, dev.flags.subBatchInterleaving ? 3 : 2, 1);

    char line[512];
    std::snprintf(
        line, sizeof(line),
        "%s,b=%d,s=%d: window=%llu perLayer=%llu iter=%llu "
        "flops=%.6g busBytes=%llu pimBusy=%llu "
        "npu=%.6f pim=%.6f bw=%.6f mem=%llu pimCmd=%llu\n",
        backend_name.c_str(), batch, seq,
        static_cast<unsigned long long>(r.windowCycles),
        static_cast<unsigned long long>(r.perLayerCycles),
        static_cast<unsigned long long>(r.iterationCycles),
        r.totalFlops, static_cast<unsigned long long>(r.dataBusBytes),
        static_cast<unsigned long long>(r.pimBankBusyCycles),
        r.npuUtil, r.pimUtil, r.bwUtil,
        static_cast<unsigned long long>(r.commands.totalMem()),
        static_cast<unsigned long long>(r.commands.totalPim()));
    return line;
}

TEST(GoldenExecutor, IterationResultsMatchGolden)
{
    std::string out =
        "# golden executor iterations: GPT3-13B, uniform "
        "compositions, symmetry on, window=(sbi?3:2), warmup=1\n";
    for (const auto &backend : core::standardServingBackends()) {
        out += serializeIteration(backend.name, backend.device, 32,
                                  128);
        out += serializeIteration(backend.name, backend.device, 48,
                                  320);
    }
    testing::compareOrUpdateGolden("executor_iterations.txt", out);
}

} // namespace
} // namespace neupims
