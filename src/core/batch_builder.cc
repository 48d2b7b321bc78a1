#include "core/batch_builder.h"

#include "common/log.h"
#include "runtime/bin_packing.h"

namespace neupims::core {

runtime::MhaLatencyParams
latencyParamsFor(const DeviceConfig &cfg, const model::LlmConfig &model,
                 int tp)
{
    runtime::MhaLatencyParams p;
    p.embeddingSize =
        static_cast<double>(model.dModelPerDevice(tp));
    p.banksPerChannel = static_cast<double>(cfg.org.banksPerChannel);
    p.dramPageElems =
        static_cast<double>(cfg.org.pageBytes) / 2.0; // fp16 elements
    p.numHeads = static_cast<double>(model.headsPerDevice(tp));
    // One PIM round processes pimParallelBanks rows in
    // (activation wave + tRCD + compute) cycles, so the per-tile
    // latency is that round time divided by the parallel banks. The
    // GWRITE stages one page into the global vector buffer. These
    // mirror dram::TimingParams.
    double wave =
        static_cast<double>((cfg.timing.pimParallelBanks + 3) / 4) *
        static_cast<double>(cfg.timing.tRRD_L);
    p.tileLatency =
        (wave + static_cast<double>(cfg.timing.tRCD +
                                    cfg.timing.pimComputePerRow)) /
        static_cast<double>(cfg.timing.pimParallelBanks);
    p.gwriteLatency =
        static_cast<double>(cfg.timing.tGWRITE + cfg.timing.caPimCmd);
    return p;
}

BatchComposition
buildComposition(const std::vector<runtime::SequenceSample> &samples,
                 int channels, bool min_load_packing,
                 const runtime::MhaLatencyParams &est)
{
    NEUPIMS_ASSERT(!samples.empty());
    NEUPIMS_ASSERT(channels >= 1);

    // Materialize transient Request objects for the assignment
    // algorithms; only the channel and the current length matter.
    std::vector<runtime::Request> storage(samples.size());
    std::vector<runtime::Request *> reqs(samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        storage[i].id = static_cast<RequestId>(i);
        storage[i].inputLength = samples[i].inputLength;
        storage[i].outputLength = samples[i].outputLength;
        storage[i].generatedTokens = samples[i].generatedTokens;
        reqs[i] = &storage[i];
    }

    if (min_load_packing) {
        runtime::MhaLatencyEstimator estimator(est);
        runtime::greedyMinLoadBinPacking(
            reqs, std::vector<double>(channels, 0.0), estimator);
    } else {
        int cursor = 0;
        runtime::roundRobinAssign(reqs, channels, cursor);
    }

    BatchComposition out;
    composeBatch(reqs, channels, out);
    return out;
}

void
composeBatch(const std::vector<runtime::Request *> &requests, int channels,
             BatchComposition &comp)
{
    NEUPIMS_ASSERT(channels >= 1);
    const auto n = static_cast<std::size_t>(channels);
    comp.full.resize(n);
    comp.sb1.resize(n);
    comp.sb2.resize(n);
    for (auto &lens : comp.full)
        lens.clear();
    for (const runtime::Request *req : requests) {
        NEUPIMS_ASSERT(req->channel >= 0 && req->channel < channels,
                       "request ", req->id, " has no channel");
        comp.full[req->channel].push_back(req->currentSeqLen());
    }
    bool turn = true;
    for (std::size_t ch = 0; ch < n; ++ch) {
        const auto &lens = comp.full[ch];
        std::size_t first = lens.size() / 2;
        if (lens.size() % 2 != 0) {
            first += turn ? 1 : 0;
            turn = !turn;
        }
        comp.sb1[ch].assign(lens.begin(), lens.begin() + first);
        comp.sb2[ch].assign(lens.begin() + first, lens.end());
    }
}

bool
usesSubBatchInterleaving(const DeviceConfig &cfg,
                         const BatchComposition &batch)
{
    if (!cfg.flags.subBatchInterleaving)
        return false;
    return requestCount(batch.sb1) > 0 && requestCount(batch.sb2) > 0 &&
           batch.batchSize() >= cfg.sbiMinBatch;
}

BatchComposition
uniformComposition(int batch, int seq_len, int channels)
{
    NEUPIMS_ASSERT(batch >= 1 && seq_len >= 1 && channels >= 1);
    return buildComposition(
        std::vector<runtime::SequenceSample>(
            static_cast<std::size_t>(batch),
            runtime::SequenceSample{seq_len, 1, 0}),
        channels, /*min_load_packing=*/false, {});
}

} // namespace neupims::core
