/**
 * @file
 * Configuration of one accelerator device and the feature flags that
 * span the paper's design space: the evaluated PIM systems (naive
 * NPU+PIM, NeuPIMs) differ only in these flags, which is what the
 * Figure 13 ablation sweeps. Its steps are the paper's three
 * mechanisms (DRB, GMLBP, SBI); the composite command interface and
 * MHA pipelining are derived from DRB, because both need the second
 * row buffer and no evaluated system has one without the others.
 */

#ifndef NEUPIMS_CORE_DEVICE_CONFIG_H_
#define NEUPIMS_CORE_DEVICE_CONFIG_H_

#include <string>

#include "dram/hbm.h"
#include "npu/npu.h"

namespace neupims::core {

/** Which execution strategy the device runs. */
enum class SystemKind
{
    NpuOnly,   ///< no PIM: MHA GEMVs stream KV over the external bus
    NpuPim,    ///< PIM for MHA; flags decide blocked vs NeuPIMs
};

struct FeatureFlags
{
    /** Dual row buffers -> concurrent MEM+PIM operation (§5.1). */
    bool dualRowBuffers = false;
    /** Greedy min-load bin packing channel allocation (Alg. 2). */
    bool minLoadPacking = false;
    /** Sub-batch interleaving (§6.2, Alg. 3). */
    bool subBatchInterleaving = false;
    /**
     * Next-layer weight prefetch during MHA: only possible with dual
     * row buffers (weights move while PIM computes).
     */
    bool prefetchDuringMha = false;

    /** Composite PIM_GEMV + PIM_HEADER command interface (§5.2). */
    bool compositeGemv() const { return dualRowBuffers; }
    /**
     * Head-granularity logit/softmax/attend pipelining (§6.1): results
     * leave the PIM while it computes, so it needs dual row buffers.
     */
    bool pipelinedMha() const { return dualRowBuffers; }
};

struct DeviceConfig
{
    std::string name;
    SystemKind kind = SystemKind::NpuPim;
    FeatureFlags flags;

    npu::NpuConfig npu;
    dram::TimingParams timing;
    dram::Organization org;

    /**
     * Row-buffer locality of NPU-side GEMV streams (NPU-only MHA):
     * transposed per-head access touches ~128 B of each activated
     * row, so the stream becomes tFAW-limited at roughly a quarter of
     * peak bandwidth — calibrated to the ~25% attention bandwidth
     * efficiency GPU kernels achieve, and the reason attention
     * saturates neither bandwidth nor compute on NPUs/GPUs (§2.1).
     */
    static constexpr int gemvStreamBursts = 2;

    /**
     * Iteration-level SBI fallback: splitting a batch re-streams the
     * layer weights once per sub-batch, which only pays off when the
     * hidden MHA time is substantial (§8.2 observes the penalty for
     * small batches). The scheduler — which already estimates MHA
     * latency per Algorithm 1 — executes serially below this batch
     * size. The Fig. 13 ablation forces SBI on by setting this to 0.
     */
    int sbiMinBatch = 192;

    /**
     * Row-buffer utilization penalty of the baseline PIM's rigid
     * per-head GEMVs: a fixed-width (head-dim) kernel leaves part of
     * every activated row unused, unlike the packed all-heads layout
     * NeuPIMs compiles (§6.3). Multiplies the baseline's row tiles.
     */
    static constexpr double rigidLayoutFactor = 1.25;

    /**
     * MEM vs PIM command arbitration (dram/mem_sched.h). FrFcfs is
     * the paper's policy and golden-locked; Paws alternates PIM and
     * MEM modes. The choice also selects the analytic model's
     * calibrated SBI overlap surface (iteration_model.cc).
     */
    dram::MemSchedKind memSched = dram::MemSchedKind::FrFcfs;

    /**
     * Inert: nothing reads it. The engine steps every channel on one
     * thread; the field stays only because simbench/ still assigns
     * it, and goes with the next change to that tree.
     */
    int simThreads = 0;

    /** Build the per-channel controller configuration. */
    dram::ControllerConfig
    controllerConfig() const
    {
        auto cfg = dram::ControllerConfig::make(flags.dualRowBuffers);
        cfg.sched = memSched;
        return cfg;
    }

    dram::MemConfig
    memConfig() const
    {
        return dram::MemConfig{timing, org, controllerConfig()};
    }

    // --- factory presets (§8.1 baselines) ---------------------------

    /** NPU-only: TPU-like accelerator, plain HBM. */
    static DeviceConfig npuOnly();

    /** Naive NPU+PIM: blocked Newton PIM, fine-grained commands. */
    static DeviceConfig naiveNpuPim();

    /** Full NeuPIMs: DRB + composite interface + GMLBP + SBI. */
    static DeviceConfig neuPims();

    /** Figure 13 ablation steps on top of naive NPU+PIM. */
    static DeviceConfig ablation(bool drb, bool gmlbp, bool sbi);
};

} // namespace neupims::core

#endif // NEUPIMS_CORE_DEVICE_CONFIG_H_
