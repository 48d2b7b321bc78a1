/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries: warm
 * batch construction (§8.1 methodology), system runners and common
 * formatting. Each bench binary regenerates one table or figure; see
 * DESIGN.md §3 for the index.
 *
 * Environment:
 *   NEUPIMS_BENCH_FAST=1  subsample sweeps (development mode; 0 or
 *                         unset runs them in full)
 *   NEUPIMS_BENCH_SEED=n  workload seed (default 42)
 */

#ifndef NEUPIMS_BENCH_BENCH_COMMON_H_
#define NEUPIMS_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/parse_flag.h"
#include "core/batch_builder.h"
#include "core/device_config.h"
#include "core/executor.h"
#include "core/gpu_model.h"
#include "core/metrics.h"
#include "model/llm_config.h"
#include "runtime/workload.h"

namespace neupims::bench {

/** The bench environment, read and checked once on first use. */
struct BenchEnv
{
    bool fast = false;       ///< NEUPIMS_BENCH_FAST: 0 or 1
    std::uint64_t seed = 42; ///< NEUPIMS_BENCH_SEED: unsigned 64-bit
};

/** Parse both variables on the first call; a malformed value of
 * either is a fatal() naming it, before any bench work starts. */
inline const BenchEnv &
benchEnv()
{
    static const BenchEnv env = [] {
        BenchEnv e;
        if (const char *v = std::getenv("NEUPIMS_BENCH_FAST"))
            e.fast = parseFlag<int>("NEUPIMS_BENCH_FAST", v, 0, 1) == 1;
        if (const char *v = std::getenv("NEUPIMS_BENCH_SEED"))
            e.seed = parseFlag<std::uint64_t>("NEUPIMS_BENCH_SEED", v, 0);
        return e;
    }();
    return env;
}

inline bool
fastMode()
{
    return benchEnv().fast;
}

inline std::uint64_t
benchSeed()
{
    return benchEnv().seed;
}

/** Warm batch per the paper's §8.1 warm-up methodology. */
inline std::vector<runtime::SequenceSample>
warmBatch(const runtime::DatasetConfig &ds, int batch,
          std::uint64_t salt = 0)
{
    runtime::WorkloadGenerator gen(ds, benchSeed() + salt);
    return gen.warmBatch(batch);
}

inline double
avgContext(const std::vector<runtime::SequenceSample> &samples)
{
    double sum = 0.0;
    for (const auto &s : samples)
        sum += s.inputLength + s.generatedTokens;
    return sum / static_cast<double>(samples.size());
}

/** Run one simulated system and return its iteration result. */
inline core::IterationResult
runSystem(const core::DeviceConfig &dev, const model::LlmConfig &llm,
          int tp, int pp,
          const std::vector<runtime::SequenceSample> &samples,
          int window_layers = 0, int warmup_layers = 1)
{
    auto est = core::latencyParamsFor(dev, llm, tp);
    auto comp = core::buildComposition(samples, dev.org.channels,
                                       dev.flags.minLoadPacking, est);
    if (window_layers == 0) {
        // Interleaved execution needs an extra layer to settle into
        // the steady-state cadence; serial modes repeat per layer.
        window_layers = dev.flags.subBatchInterleaving ? 3 : 2;
    }
    core::DeviceExecutor exec(dev, llm, tp, llm.layersPerDevice(pp));
    return exec.runIteration(comp, window_layers, warmup_layers);
}

/** GPU-only baseline throughput (analytic; DESIGN.md substitution). */
inline double
gpuThroughput(const model::LlmConfig &llm, int tp, int pp,
              const std::vector<runtime::SequenceSample> &samples)
{
    core::GpuModel gpu{core::GpuConfig{}};
    return gpu.throughput(llm, tp, pp,
                          static_cast<int>(samples.size()),
                          avgContext(samples));
}

} // namespace neupims::bench

#endif // NEUPIMS_BENCH_BENCH_COMMON_H_
