/**
 * @file
 * Device execution engine: co-simulates the NPU (systolic arrays,
 * vector units, DMA streams) and the HBM-PIM memory system for a
 * window of decoder layers of one batched generation iteration.
 *
 * Three execution strategies cover the paper's systems:
 *  - NPU-only: MHA GEMVs stream the KV cache over the external bus
 *    with poor row locality; softmax on the vector units.
 *  - Serial NPU+PIM: MHA offloaded to PIM. With baseline banks the
 *    channel blocks memory traffic during kernels and the
 *    logit -> softmax -> attend chain is exposed; with dual row
 *    buffers the softmax hides under PIM compute (§6.1) and weight
 *    prefetch proceeds during MHA.
 *  - Sub-batch interleaving: two independent sub-batches pipeline so
 *    one sub-batch's GEMMs overlap the other's MHA (§6.2, Fig. 11b).
 *
 * Full-model iteration latency is composed from the measured
 * steady-state per-layer period (§6.2's composition rule); see
 * DESIGN.md for the methodology note.
 */

#ifndef NEUPIMS_CORE_EXECUTOR_H_
#define NEUPIMS_CORE_EXECUTOR_H_

#include <functional>
#include <vector>

#include "core/device_config.h"
#include "dram/hbm.h"
#include "model/compiler.h"
#include "model/llm_config.h"

namespace neupims::core {

/** Requests in a channel-grouped list of KV lengths. */
inline int
requestCount(const std::vector<std::vector<int>> &groups)
{
    int n = 0;
    for (const auto &ch : groups)
        n += static_cast<int>(ch.size());
    return n;
}

/** The batch composition one iteration executes. */
struct BatchComposition
{
    /** Current KV length of every request, grouped by channel. */
    std::vector<std::vector<int>> full;
    /** Algorithm-3 sub-batches (used when SBI is enabled). */
    std::vector<std::vector<int>> sb1;
    std::vector<std::vector<int>> sb2;

    int batchSize() const { return requestCount(full); }
};

/**
 * Out-of-band memory traffic injected into the iteration window as
 * explicit per-channel MemJobs — it contends with the iteration's own
 * weight/KV/PIM command streams on the same channels instead of being
 * priced as a bandwidth-only analytic term. Models KV swap traffic
 * (preemption) at command-level fidelity.
 */
struct ExtraMemTraffic
{
    Bytes swapInBytes = 0;  ///< host->HBM KV restores (writes)
    Bytes swapOutBytes = 0; ///< HBM->host KV evictions (reads)

    bool any() const { return swapInBytes > 0 || swapOutBytes > 0; }
};

/** Phase-level breakdown of one measured decoder layer (Fig. 6). */
struct PhaseBreakdown
{
    Cycle qkvCycles = 0;
    Cycle mhaCycles = 0;
    Cycle projFfnCycles = 0;
    double npuUtilQkv = 0.0;
    double npuUtilMha = 0.0;
    double npuUtilProjFfn = 0.0;
    double pimUtilMha = 0.0;
};

struct IterationResult
{
    Cycle windowCycles = 0;     ///< simulated span (window layers)
    Cycle perLayerCycles = 0;   ///< steady-state per-layer period
    Cycle iterationCycles = 0;  ///< composed over all device layers
    double throughputTokensPerSec = 0.0;
    double npuUtil = 0.0; ///< useful FLOPs over peak (Table 4 "NPU")
    double pimUtil = 0.0; ///< adder-tree busy over capacity ("PIM")
    double bwUtil = 0.0;  ///< data-bus busy fraction ("Bandwidth")
    Flops totalFlops = 0.0;
    Bytes dataBusBytes = 0;
    Cycle pimBankBusyCycles = 0;
    dram::CommandCounts commands;
    PhaseBreakdown phases; ///< serial modes only (phases overlap in SBI)

    /** Summed controller scheduling stats (dram/mem_sched.h). */
    dram::MemSchedStats memSched;
    double memBankUtil = 0.0; ///< mean per-bank MEM data service
    /** Completion cycle of injected ExtraMemTraffic (0 if none). */
    Cycle extraTrafficEndCycle = 0;
    /** Per-channel activity over the whole window (Table 5 power). */
    std::vector<dram::ChannelActivity> channelActivity;
};

class DeviceExecutor
{
  public:
    /**
     * @param cfg device microarchitecture + feature flags
     * @param model LLM architecture
     * @param tp tensor-parallel degree sharding this device's weights
     * @param layers_per_device decoder blocks resident on this device
     */
    DeviceExecutor(const DeviceConfig &cfg, const model::LlmConfig &model,
                   int tp, int layers_per_device);

    /**
     * Simulate @p window_layers decoder layers of one iteration (the
     * first @p warmup_layers prime the pipeline and are excluded from
     * steady-state measurement) and compose the full iteration.
     */
    IterationResult runIteration(const BatchComposition &batch,
                                 int window_layers = 3,
                                 int warmup_layers = 1);

    /** As above, with out-of-band KV swap traffic contending at the
     * command level. */
    IterationResult runIteration(const BatchComposition &batch,
                                 const ExtraMemTraffic &extra,
                                 int window_layers = 3,
                                 int warmup_layers = 1);

    const DeviceConfig &config() const { return cfg_; }

    /**
     * Channel equivalence classes the last runIteration simulated:
     * channels whose controllers receive identical work fold onto one
     * (DESIGN.md §5), so this equals the channel count only when no
     * two channels' work matches.
     */
    int lastSymmetryClasses() const { return lastSymmetryClasses_; }

  private:
    /** Tests reach the unfolded reference run through this peer. */
    friend class DeviceExecutorTestPeer;

    /** runIteration; with @p fold false every channel gets its own
     * controller, the reference the fold is tested against. @p inspect,
     * if set, sees the memory stack once the window has run. */
    IterationResult
    run(const BatchComposition &batch, const ExtraMemTraffic &extra,
        int window_layers, int warmup_layers, bool fold,
        const std::function<void(const dram::HbmStack &)> &inspect = {});

    DeviceConfig cfg_;
    int layersPerDevice_;
    model::Compiler compiler_;
    int lastSymmetryClasses_ = 0;
};

} // namespace neupims::core

#endif // NEUPIMS_CORE_EXECUTOR_H_
