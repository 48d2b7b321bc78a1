/**
 * @file
 * TransPIM baseline (paper §8.2, Fig. 15).
 *
 * TransPIM is a PIM-only transformer accelerator with a token-based
 * dataflow and ring broadcast, designed around encoder blocks and
 * single-request inference. Running batched decoder inference on it
 * means every operator — the big weight GEMMs included — executes in
 * the banks' GEMV datapaths, one token at a time, with no weight
 * reuse across the batch; the weight matrices are re-swept through
 * the row buffers for every token, and each input vector chunk must
 * be broadcast to the banks over the token ring before a sweep.
 *
 * Substitution note (DESIGN.md): no TransPIM artifact exists — the
 * NeuPIMs authors also wrote their own model. We reuse our PIM round
 * timing (activation-wave-paced bank rows) plus a ring-broadcast
 * stage per operand chunk, which reproduces the two-orders-of-
 * magnitude gap whose root cause is GEMM-on-PIM.
 */

#ifndef NEUPIMS_CORE_TRANSPIM_EXECUTOR_H_
#define NEUPIMS_CORE_TRANSPIM_EXECUTOR_H_

#include "core/device_config.h"
#include "model/llm_config.h"

namespace neupims::core {

/**
 * TransPIM on the NeuPIMs device's memory (Table 2): its banks keep
 * the same in-bank power envelope (TimingParams::pimParallelBanks
 * rows per round), activation pacing (tRRD_L), tRCD and per-row
 * compute, and its weights shard over the same channels and pages.
 */
class TransPimExecutor
{
  public:
    /**
     * Cycles to ring-broadcast one operand page across the banks'
     * token ring (one hop per bank on the daisy chain).
     */
    static constexpr Cycle kRingBroadcastPerPage = 128;

    explicit TransPimExecutor(const DeviceConfig &dev) : dev_(dev) {}

    /** Cycles for one full round of all banks (activation wave). */
    Cycle roundCycles() const;

    /**
     * Cycles for one decoder layer: every request's token re-sweeps
     * the layer weights through the banks (no batch reuse), plus the
     * attention GEMVs.
     */
    Cycle layerCycles(const model::LlmConfig &model, int tp, int batch,
                      double avg_seq_len) const;

    /** Tokens per second for the full model. */
    double throughput(const model::LlmConfig &model, int tp, int pp,
                      int batch, double avg_seq_len) const;

  private:
    DeviceConfig dev_;
};

} // namespace neupims::core

#endif // NEUPIMS_CORE_TRANSPIM_EXECUTOR_H_
