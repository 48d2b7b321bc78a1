#include "core/batch_builder.h"

#include "common/log.h"
#include "runtime/bin_packing.h"
#include "runtime/sub_batch.h"

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

    std::vector<std::vector<runtime::Request *>> grouped;
    runtime::SubBatches subs;
    runtime::groupByChannel(reqs, channels, grouped);
    runtime::partitionSubBatches(grouped, subs);

    BatchComposition out;
    fillSeqLens(grouped, out.full);
    fillSeqLens(subs.sb1, out.sb1);
    fillSeqLens(subs.sb2, out.sb2);
    return out;
}

void
fillSeqLens(const std::vector<std::vector<runtime::Request *>> &groups,
            std::vector<std::vector<int>> &lens)
{
    lens.resize(groups.size());
    for (std::size_t ch = 0; ch < groups.size(); ++ch) {
        lens[ch].clear();
        for (const runtime::Request *req : groups[ch])
            lens[ch].push_back(req->currentSeqLen());
    }
}

bool
usesSubBatchInterleaving(const DeviceConfig &cfg,
                         const BatchComposition &batch)
{
    if (!cfg.flags.subBatchInterleaving)
        return false;
    auto count = [](const std::vector<std::vector<int>> &b) {
        int n = 0;
        for (const auto &ch : b)
            n += static_cast<int>(ch.size());
        return n;
    };
    return count(batch.sb1) > 0 && count(batch.sb2) > 0 &&
           batch.batchSize() >= cfg.sbiMinBatch;
}

BatchComposition
uniformComposition(int batch, int seq_len, int channels)
{
    NEUPIMS_ASSERT(batch >= 1 && seq_len >= 1 && channels >= 1);
    BatchComposition comp;
    comp.full.assign(channels, {});
    comp.sb1.assign(channels, {});
    comp.sb2.assign(channels, {});
    // Round-robin assignment of identical requests == splitEven of
    // the count; sub-batches follow Algorithm 3's alternating split.
    bool turn = true;
    for (ChannelId ch = 0; ch < channels; ++ch) {
        int count = batch / channels + (ch < batch % channels ? 1 : 0);
        comp.full[ch].assign(count, seq_len);
        std::size_t first = static_cast<std::size_t>(count) / 2;
        if (count % 2 != 0) {
            first += turn ? 1 : 0;
            turn = !turn;
        }
        comp.sb1[ch].assign(first, seq_len);
        comp.sb2[ch].assign(static_cast<std::size_t>(count) - first,
                            seq_len);
    }
    return comp;
}

} // namespace neupims::core
