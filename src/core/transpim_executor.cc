#include "core/transpim_executor.h"

#include <algorithm>

#include "common/log.h"

namespace neupims::core {

Cycle
TransPimExecutor::roundCycles() const
{
    // One round opens one row in each bank: ceil(banks/4) grouped
    // activations paced by tRRD_L (with the tFAW window folded into
    // the 4-bank grouping), then the last group's tRCD + compute.
    const auto &t = dev_.timing;
    Cycle groups = static_cast<Cycle>((t.pimParallelBanks + 3) / 4);
    return groups * t.tRRD_L + t.tRCD + t.pimComputePerRow;
}

Cycle
TransPimExecutor::layerCycles(const model::LlmConfig &model, int tp,
                              int batch, double avg_seq_len) const
{
    NEUPIMS_ASSERT(batch >= 1 && avg_seq_len >= 1.0);
    const Bytes weight_bytes = model.weightBytesPerLayer(tp);
    const Bytes bytes_per_round =
        dev_.org.pageBytes *
        static_cast<Bytes>(dev_.timing.pimParallelBanks);
    const int channels = dev_.org.channels;

    // Weights are sharded across channels; one token's pass sweeps
    // this channel's shard once.
    Bytes shard = weight_bytes / static_cast<Bytes>(channels);
    Cycle rounds_per_token =
        static_cast<Cycle>((shard + bytes_per_round - 1) /
                           bytes_per_round);

    // Token-based dataflow: the input activation chunk feeding each
    // round must be ring-broadcast to the banks first. For decoder
    // GEMMs the operand changes every round (no reuse), so the
    // broadcast is not amortized — the core inefficiency the paper
    // calls out.
    Cycle per_token =
        rounds_per_token * (roundCycles() + kRingBroadcastPerPage);

    // No batching: every request's token repeats the sweep.
    Cycle gemm_cycles = per_token * static_cast<Cycle>(batch);

    // Attention GEMVs: same in-bank machinery as NeuPIMs' PIM path,
    // averaged per channel.
    double kv_bytes_per_req = 2.0 * avg_seq_len *
                              static_cast<double>(
                                  model.dModelPerDevice(tp)) *
                              2.0;
    double kv_rounds = kv_bytes_per_req * batch /
                       static_cast<double>(channels) /
                       static_cast<double>(bytes_per_round);
    Cycle mha_cycles = static_cast<Cycle>(
        kv_rounds * static_cast<double>(roundCycles() +
                                        kRingBroadcastPerPage));

    return gemm_cycles + mha_cycles;
}

double
TransPimExecutor::throughput(const model::LlmConfig &model, int tp,
                             int pp, int batch,
                             double avg_seq_len) const
{
    Cycle iteration = layerCycles(model, tp, batch, avg_seq_len) *
                      static_cast<Cycle>(model.layersPerDevice(pp));
    return static_cast<double>(batch) / cyclesToSeconds(iteration);
}

} // namespace neupims::core
