#include "core/iteration_model.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"

namespace neupims::core {

namespace {

/**
 * Fraction of a channel's peak data-bus bandwidth a dense
 * page-interleaved stream sustains: 16 bursts per activated row with
 * bank-rotated activations leaves only tRCD/tRP edges exposed. 0.85
 * matches the event engine's measured weight-stream rate within a few
 * percent across the Table 3 models.
 */
constexpr double kDenseStreamEff = 0.85;

/**
 * Ratio between the event-driven controller's effective per-channel
 * MHA time and the idealized Algorithm-1 estimate. Algorithm 1 prices
 * GEMV tiles at the PIM datapath's peak; the engine additionally pays
 * C/A-bus occupancy (4 cycles per PIM command, §5.3), tFAW-limited
 * activation waves, per-request kernel boundaries and result-burst
 * drains. Measured across the Table 3 models and 256-2048 sequence
 * lengths the ratio is 12.0-12.8 for the composite pipelined path
 * (kernels stream back-to-back) and 33.4-34.5 for the rigid baseline
 * interface (per-head kernels, fine-grained commands, refresh
 * guards), on top of its rigidLayoutFactor row padding. Residual
 * model error is within ~5%; calibrate() absorbs the rest per
 * configuration.
 */
constexpr double kPimPipelinedEngineFactor = 12.4;
constexpr double kPimBaselineEngineFactor = 33.9;

/**
 * Strided GEMV streams (NPU-only MHA) sustain slightly less than the
 * tFAW-derived bound because activate waves and burst drains do not
 * overlap perfectly; 0.93 matches the engine within ~2%.
 */
constexpr double kStridedStreamEff = 0.93;

/**
 * Fraction of the decode PIM-MHA span the NPU can spend on
 * piggybacked prefill work. During PIM MHA the systolic arrays and
 * vector units idle (bar weight prefetch), so prefill attention and
 * the prompt GEMM rows can hide there; the data bus still carries PIM
 * result/append traffic and weight prefetch, so only half the span is
 * credited — the same conservatism as the SBI partial-overlap rule.
 */
constexpr double kPrefillHideFraction = 0.5;

/**
 * Fraction of the decode PIM-MHA span creditable against KV swap
 * traffic on pipelined devices. Swap transfers ride the host link, so
 * only their on-device page reads/writes contend with the data bus;
 * they can hide under the same NPU-idle window the prefill piggyback
 * uses, but the two credits share it — swap takes the half the
 * prefill credit leaves behind (0.5 x 0.5).
 */
constexpr double kSwapHideFraction = 0.25;

runtime::MemSchedSummary
summarizeMemSched(const char *policy, const dram::MemSchedStats &s,
                  double bank_util)
{
    runtime::MemSchedSummary out;
    out.valid = true;
    out.policy = policy;
    out.rowHits = s.rowHits;
    out.rowMisses = s.rowMisses;
    out.rowConflicts = s.rowConflicts;
    out.memCommands = s.memCommands;
    out.pimCommands = s.pimCommands;
    out.modeSwitches = s.modeSwitches;
    out.pimStallCycles = s.pimStallCycles;
    out.pimWasteCycles = s.pimWasteCycles;
    out.memBankUtil = bank_util;
    return out;
}

} // namespace

void
fillComposition(const runtime::IterationSchedule &schedule, int channels,
                MixedComposition &mix)
{
    composeBatch(schedule.batch, channels, mix.decode);
    mix.prefill.clear();
    for (const auto &slice : schedule.prefill) {
        // Prefix-share pricing (DESIGN.md §13) needs no special case
        // here: a prefix hit starts the cursor past the cached
        // tokens, so startToken already encodes it. The compiler
        // prices the slice's GEMM/attention compute over `tokens`
        // (only the uncached suffix) while PrefillAttnWork's
        // kvReadBytes covers the full startToken + tokens context —
        // shared pages still stream into NPU attention, which is
        // exactly the per-hit KV prefix *read* term: cache hits
        // collapse compute, not bandwidth.
        mix.prefill.push_back(model::PrefillSliceSpec{
            slice.req->channel, slice.startToken, slice.tokens});
    }
    mix.swapBytes = schedule.swapOutBytes + schedule.swapInBytes;
    mix.swapBytesPerCycle = schedule.swapBytesPerCycle;
}

// --- AnalyticIterationModel ------------------------------------------------

namespace {

/**
 * Effective SBI hide fractions measured from the cycle-accurate
 * engine: f_eff = (serial - measured_per_layer) / hideable at every
 * grid point, per arbitration policy (gpt3-13b, NeuPIMs+SBI device,
 * 32 channels; bench/fig_serving_latency.cc mem_sched_sweep
 * regenerates them, DESIGN.md §11 tabulates them). Axes: requests
 * per channel per Algorithm-3 sub-batch {4, 6, 8, 12} (batch
 * 256-768) x KV length {512, 1024, 1536}.
 *
 * The surface shape is the finding: overlap collapses to ~0 at 4
 * requests/channel/sub-batch (one request per pipelined-MHA chunk —
 * no interleaving grain), then plateaus batch-wise while barely
 * moving with KV length. FR-FCFS plateaus at ~0.3-0.4; PAWS's mode
 * exclusivity batches each class's commands into long runs, hiding
 * up to ~0.9 of the span at large batches. No constant fraction fits
 * either surface — the historical 0.25 left the documented ±9% (and
 * worse) residual.
 */
constexpr double kSbiGridSubBatch[4] = {4.0, 6.0, 8.0, 12.0};
constexpr double kSbiGridKvLen[3] = {512.0, 1024.0, 1536.0};

constexpr double kSbiHideFrFcfs[4][3] = {
    {0.0541, 0.0408, 0.0515},
    {0.3479, 0.2626, 0.2675},
    {0.3783, 0.2859, 0.2912},
    {0.3951, 0.2989, 0.3038},
};
constexpr double kSbiHidePaws[4][3] = {
    {0.1271, 0.0862, 0.0917},
    {0.4307, 0.3240, 0.3282},
    {0.7351, 0.4978, 0.5025},
    {0.8972, 0.6749, 0.6802},
};

/** Index of the grid cell containing @p v (clamped), and the
 * interpolation weight toward the upper edge. */
template <std::size_t N>
void
gridCell(const double (&axis)[N], double v, std::size_t &lo, double &t)
{
    if (v <= axis[0]) {
        lo = 0;
        t = 0.0;
        return;
    }
    if (v >= axis[N - 1]) {
        lo = N - 2;
        t = 1.0;
        return;
    }
    lo = 0;
    while (lo + 2 < N && v >= axis[lo + 1])
        ++lo;
    t = (v - axis[lo]) / (axis[lo + 1] - axis[lo]);
}

} // namespace

double
calibratedSbiHideFraction(const DeviceConfig &cfg,
                          double per_channel_sb, double kv_len)
{
    const double(*surface)[3] = cfg.memSched == dram::MemSchedKind::Paws
                                    ? kSbiHidePaws
                                    : kSbiHideFrFcfs;
    std::size_t i, j;
    double tx, ty;
    gridCell(kSbiGridSubBatch, per_channel_sb, i, tx);
    gridCell(kSbiGridKvLen, kv_len, j, ty);
    double lo = surface[i][j] * (1.0 - ty) + surface[i][j + 1] * ty;
    double hi =
        surface[i + 1][j] * (1.0 - ty) + surface[i + 1][j + 1] * ty;
    return lo * (1.0 - tx) + hi * tx;
}

AnalyticIterationModel::AnalyticIterationModel(
    const DeviceConfig &cfg, const model::LlmConfig &model, int tp,
    int layers_per_device)
    : name_("analytic(" + cfg.name + ")"), cfg_(cfg), model_(model),
      tp_(tp), layersPerDevice_(layers_per_device),
      compiler_(model, tp,
                model::MemShape{cfg.org.channels,
                                cfg.org.banksPerChannel,
                                cfg.org.pageBytes, cfg.org.burstBytes}),
      saPool_(cfg.npu.sa, cfg.npu.systolicArrays),
      vuPool_(cfg.npu.vu, cfg.npu.vectorUnits),
      estimator_(latencyParamsFor(cfg, model, tp))
{
    NEUPIMS_ASSERT(layersPerDevice_ >= 1);
}

double
AnalyticIterationModel::denseStreamCycles(Bytes bytes) const
{
    if (bytes == 0)
        return 0.0;
    double device_bytes_per_cycle =
        static_cast<double>(cfg_.org.channels) *
        cfg_.org.bytesPerCycle() * kDenseStreamEff;
    return static_cast<double>(bytes) / device_bytes_per_cycle;
}

double
AnalyticIterationModel::gemmPhaseCycles(const model::GemmWork &gemm,
                                        Bytes prefetched_bytes) const
{
    double compute =
        static_cast<double>(saPool_.gemmCycles(gemm.shape));
    Bytes weights = gemm.weightBytes();
    Bytes streamed =
        weights > prefetched_bytes ? weights - prefetched_bytes : 0;
    // Weight streams overlap compute (double-buffered panels); the
    // phase ends when the slower of the two finishes.
    return std::max(compute, denseStreamCycles(streamed));
}

double
AnalyticIterationModel::mhaCycles(const model::LayerPlan &plan) const
{
    const auto &mha = plan.mha;

    if (cfg_.kind == SystemKind::NpuOnly) {
        // The KV cache streams over the external bus with strided
        // per-head access: each activated row yields only
        // gemvStreamBursts of its 16 bursts, and tFAW caps the
        // activate rate, exactly as dma/controller enforce.
        Bytes total = 0;
        for (std::size_t ch = 0; ch < mha.logit.size(); ++ch) {
            Bytes tiles =
                static_cast<Bytes>(mha.logit[ch].rowTiles) +
                static_cast<Bytes>(mha.attend[ch].rowTiles);
            total += tiles * cfg_.org.pageBytes;
        }
        double ch_bytes_per_cycle =
            4.0 * static_cast<double>(cfg_.gemvStreamBursts) *
            static_cast<double>(cfg_.org.burstBytes) /
            static_cast<double>(cfg_.timing.tFAW) * kStridedStreamEff;
        double stream = static_cast<double>(total) /
                        (static_cast<double>(cfg_.org.channels) *
                         ch_bytes_per_cycle);
        double softmax = static_cast<double>(
            vuPool_.softmaxCycles(mha.totalSoftmaxElems));
        return stream + softmax;
    }

    // PIM MHA: the layer waits for its slowest channel (the same
    // max-over-channels Algorithm 2 balances). Per channel the
    // Algorithm-1 estimate prices the GEMV kernels; the baseline's
    // rigid per-head interface pays the §6.3 row-utilization penalty
    // and exposes its softmax between the logit and attend phases,
    // while the pipelined NeuPIMs path hides it under PIM compute.
    double worst = 0.0;
    for (std::size_t ch = 0; ch < mha.requests.size(); ++ch) {
        double est = 0.0;
        std::uint64_t softmax_elems = 0;
        for (const auto &req : mha.requests[ch]) {
            est += estimator_.estimate(req.seqLen);
            softmax_elems += req.softmaxElems;
        }
        if (cfg_.flags.pipelinedMha()) {
            est *= kPimPipelinedEngineFactor;
        } else {
            est *= kPimBaselineEngineFactor * cfg_.rigidLayoutFactor;
            est += static_cast<double>(
                vuPool_.softmaxCycles(softmax_elems));
        }
        worst = std::max(worst, est);
    }
    return worst;
}

double
AnalyticIterationModel::serialLayerCycles(const model::LayerPlan &plan,
                                          bool allow_prefetch) const
{
    NEUPIMS_ASSERT(!plan.gemms.empty());

    double mha = mhaCycles(plan);

    // Steady state: with prefetchDuringMha each layer's QKV weights
    // are partially resident before the phase starts (bounded by half
    // the scratchpad, as the engine enforces).
    Bytes prefetched = 0;
    if (allow_prefetch && cfg_.flags.prefetchDuringMha && mha > 0.0) {
        prefetched = std::min(cfg_.npu.scratchpadBytes / 2,
                              plan.gemms[0].weightBytes());
    }

    double total = gemmPhaseCycles(plan.gemms[0], prefetched);

    // Fresh K/V vectors land in the cache before the GEMVs read them;
    // per-channel append streams run concurrently.
    Bytes worst_append = 0;
    for (Bytes b : plan.mha.kvAppendBytes)
        worst_append = std::max(worst_append, b);
    total += static_cast<double>(worst_append) /
             (cfg_.org.bytesPerCycle() * kDenseStreamEff);

    total += mha;
    for (std::size_t i = 1; i < plan.gemms.size(); ++i)
        total += gemmPhaseCycles(plan.gemms[i], 0);
    total += static_cast<double>(vuPool_.opCycles(
        plan.vectorElems, cfg_.npu.vu.layerNormOpsPerElem));
    return total;
}

double
AnalyticIterationModel::prefillAttnCycles(
    const model::LayerPlan &plan) const
{
    if (plan.prefillAttn.empty())
        return 0.0;
    const std::int64_t d_dev = model_.dModelPerDevice(tp_);
    double ch_bytes_per_cycle =
        cfg_.org.bytesPerCycle() * kDenseStreamEff;
    double total = 0.0;
    std::uint64_t softmax_elems = 0;
    for (const auto &p : plan.prefillAttn) {
        // Batched causal attention on the systolic arrays; the K/V
        // window streams from the slice's single channel, overlapped
        // with compute (double-buffered panels) like a weight stream.
        double compute = static_cast<double>(
            saPool_.gemmCycles(p.logitShape(d_dev)) +
            saPool_.gemmCycles(p.attendShape(d_dev)));
        double stream =
            static_cast<double>(p.kvReadBytes) / ch_bytes_per_cycle;
        total += std::max(compute, stream);
        softmax_elems += p.softmaxElems;
    }
    total += static_cast<double>(vuPool_.softmaxCycles(softmax_elems));
    return total;
}

double
AnalyticIterationModel::mixedLayerCycles(const MixedComposition &mix)
{
    NEUPIMS_ASSERT(mix.hasPrefill());

    // The whole batch with its prompt rows, compiled once for every
    // path below.
    compiler_.compileLayer(mix.decode.full, mix.prefill, fullPlan_);
    const model::LayerPlan &mixed = fullPlan_;

    if (!mix.hasDecode()) {
        // Dedicated prefill iteration: weight GEMMs over the prompt
        // rows, NPU attention, K/V appends; no decode MHA (and no
        // prefetch credit — there is no MHA span to prefetch under).
        return serialLayerCycles(mixed, false) +
               prefillAttnCycles(mixed);
    }

    if (usesSubBatchInterleaving(cfg_, mix.decode)) {
        // SBI decode base + prefill add-on. The decode sub-batches
        // already stream every weight panel, so the prompt rows only
        // pay systolic compute for their extra GEMM passes, plus
        // their K/V appends, vector ops and NPU attention; on the
        // pipelined path part of that hides under the PIM MHA span.
        compiler_.compileLayer(mix.decode.sb1, {}, sb1Plan_);
        compiler_.compileLayer(mix.decode.sb2, {}, sb2Plan_);
        double base = sbiLayerCycles(sb1Plan_, sb2Plan_);
        double decode_mha = mhaCycles(sb1Plan_) + mhaCycles(sb2Plan_);

        double extra = 0.0;
        for (const auto &g : mixed.gemms) {
            npu::GemmShape prompt_rows = g.shape;
            prompt_rows.m = mixed.prefillTokens;
            extra +=
                static_cast<double>(saPool_.gemmCycles(prompt_rows));
        }
        // Prefill K/V appends beyond the decode ones (worst channel).
        const Bytes kv_tok = model_.kvBytesPerTokenPerLayer(tp_);
        Bytes worst_append = 0;
        for (std::size_t ch = 0; ch < mixed.mha.kvAppendBytes.size();
             ++ch) {
            Bytes decode_bytes =
                static_cast<Bytes>(mixed.mha.requests[ch].size()) *
                kv_tok;
            worst_append =
                std::max(worst_append,
                         mixed.mha.kvAppendBytes[ch] - decode_bytes);
        }
        extra += static_cast<double>(worst_append) /
                 (cfg_.org.bytesPerCycle() * kDenseStreamEff);
        extra += static_cast<double>(vuPool_.opCycles(
            static_cast<std::uint64_t>(mixed.prefillTokens) *
                static_cast<std::uint64_t>(model_.dModel) * 4,
            cfg_.npu.vu.layerNormOpsPerElem));

        double attn = prefillAttnCycles(mixed);
        double hidden =
            cfg_.flags.pipelinedMha()
                ? std::min(extra + attn,
                           kPrefillHideFraction * decode_mha)
                : 0.0;
        return base + extra + attn - hidden;
    }

    // Serial decode: price the combined plan directly — the prompt
    // rows amortize into the same weight GEMM phases and KV-append
    // stream — then add the NPU attention with the piggyback hiding
    // credit against the PIM decode-MHA span.
    double base = serialLayerCycles(mixed, true);
    double attn = prefillAttnCycles(mixed);
    double hidden = cfg_.flags.pipelinedMha()
                        ? std::min(attn, kPrefillHideFraction *
                                             mhaCycles(mixed))
                        : 0.0;
    return base + attn - hidden;
}

double
AnalyticIterationModel::sbiLayerCycles(const model::LayerPlan &sb1,
                                       const model::LayerPlan &sb2) const
{
    // Sub-batch interleaving pipelines the two threads so one's GEMMs
    // overlap the other's MHA (§6.2, Fig. 11b). The engine shows the
    // overlap is far from ideal: both threads' PIM kernels share the
    // same channels, weight streams contend with PIM result/append
    // traffic on the data bus, and the C/A bus carries both threads'
    // commands, so the measured per-layer period falls between full
    // serialization (s1 + s2) and perfect hiding. The hidden share of
    // min(both threads' MHA, both threads' non-MHA) comes from the
    // per-(device policy, composition) calibrated surface measured
    // from the engine grid (calibratedSbiHideFraction; DESIGN.md
    // §11). (No prefetch credit under SBI: the other sub-batch's GEMM
    // traffic owns the bus during MHA.)
    double s1 = serialLayerCycles(sb1, false);
    double s2 = serialLayerCycles(sb2, false);
    double mha = mhaCycles(sb1) + mhaCycles(sb2);
    int batch = sb1.batch + sb2.batch;
    double per_ch = static_cast<double>(batch) /
                    (2.0 * static_cast<double>(cfg_.org.channels));
    const Bytes kv_tok = model_.kvBytesPerTokenPerLayer(tp_);
    double kv_len =
        batch > 0 && kv_tok > 0
            ? static_cast<double>(sb1.mha.kvReadBytes +
                                  sb2.mha.kvReadBytes) /
                  (static_cast<double>(batch) *
                   static_cast<double>(kv_tok))
            : kSbiGridKvLen[0];
    double f = calibratedSbiHideFraction(cfg_, per_ch, kv_len);
    double hidden = f * std::min(mha, (s1 + s2) - mha);
    return s1 + s2 - hidden;
}

void
AnalyticIterationModel::sbiComponents(const BatchComposition &comp,
                                      double &serial, double &hideable)
{
    compiler_.compileLayer(comp.sb1, {}, sb1Plan_);
    compiler_.compileLayer(comp.sb2, {}, sb2Plan_);
    double s1 = serialLayerCycles(sb1Plan_, false);
    double s2 = serialLayerCycles(sb2Plan_, false);
    double mha = mhaCycles(sb1Plan_) + mhaCycles(sb2Plan_);
    serial = s1 + s2;
    hideable = std::min(mha, serial - mha);
}

Cycle
AnalyticIterationModel::perLayerCyclesFor(const BatchComposition &comp)
{
    double layer;
    if (usesSubBatchInterleaving(cfg_, comp)) {
        compiler_.compileLayer(comp.sb1, {}, sb1Plan_);
        compiler_.compileLayer(comp.sb2, {}, sb2Plan_);
        layer = sbiLayerCycles(sb1Plan_, sb2Plan_);
    } else {
        compiler_.compileLayer(comp.full, {}, fullPlan_);
        layer = serialLayerCycles(fullPlan_, true);
    }
    layer *= scale_;
    return static_cast<Cycle>(std::max(1.0, layer));
}

Cycle
AnalyticIterationModel::perLayerCyclesFor(const MixedComposition &mix)
{
    if (!mix.hasPrefill())
        return perLayerCyclesFor(mix.decode);
    double layer = mixedLayerCycles(mix) * scale_;
    return static_cast<Cycle>(std::max(1.0, layer));
}

Cycle
AnalyticIterationModel::iterationCyclesFor(const BatchComposition &comp)
{
    return perLayerCyclesFor(comp) *
           static_cast<Cycle>(layersPerDevice_);
}

Cycle
AnalyticIterationModel::swapOverheadCycles(const MixedComposition &mix)
{
    if (!mix.hasSwap())
        return 0;
    double transfer = static_cast<double>(mix.swapBytes) /
                      mix.swapBytesPerCycle;
    if (cfg_.flags.pipelinedMha() && mix.hasDecode()) {
        // The PIM decode-MHA spans across all layers form the
        // NPU-idle window; swap claims the share the prefill
        // piggyback credit leaves (kSwapHideFraction), on the same
        // calibrated clock as the per-layer pricing.
        compiler_.compileLayer(mix.decode.full, {}, fullPlan_);
        double mha = mhaCycles(fullPlan_) *
                     static_cast<double>(layersPerDevice_) * scale_;
        transfer -= std::min(transfer, kSwapHideFraction * mha);
    }
    return static_cast<Cycle>(transfer);
}

Cycle
AnalyticIterationModel::computeCyclesFor(const MixedComposition &mix)
{
    return perLayerCyclesFor(mix) * static_cast<Cycle>(layersPerDevice_);
}

Cycle
AnalyticIterationModel::iterationCyclesFor(const MixedComposition &mix)
{
    return computeCyclesFor(mix) + swapOverheadCycles(mix);
}

namespace {

/**
 * Straggler pricing, shared by both iteration models: the iteration
 * completes when its slowest channel does, so an active straggler
 * window stretches the whole span by the schedule's load-weighted
 * worst factor (IterationSchedule::stragglerInflation, 1.0 with no
 * active window — faults off leaves every model byte-identical).
 */
Cycle
priceStragglers(Cycle cycles,
                const runtime::IterationSchedule &schedule)
{
    double factor = schedule.stragglerInflation();
    if (factor <= 1.0)
        return cycles;
    return static_cast<Cycle>(static_cast<double>(cycles) * factor);
}

} // namespace

Cycle
AnalyticIterationModel::iterationCycles(
    const runtime::IterationSchedule &schedule)
{
    fillComposition(schedule, cfg_.org.channels, mix_);
    if (!mix_.hasDecode() && !mix_.hasPrefill()) {
        // Restore-only iteration (swap-in with no compute scheduled):
        // the host-link transfer is the whole span.
        return priceStragglers(
            std::max<Cycle>(1, swapOverheadCycles(mix_)), schedule);
    }
    return priceStragglers(iterationCyclesFor(mix_), schedule);
}

double
AnalyticIterationModel::calibrate(int batch, int seq_len,
                                  int window_layers)
{
    auto comp = uniformComposition(batch, seq_len, cfg_.org.channels);
    if (window_layers == 0)
        window_layers = cfg_.flags.subBatchInterleaving ? 3 : 2;
    DeviceExecutor exec(cfg_, model_, tp_, layersPerDevice_);
    auto measured = exec.runIteration(comp, window_layers, 1);
    // The engine run's DRAM scheduling stats become this model's
    // MemSchedSummary.
    memSchedSummary_ = summarizeMemSched(
        dram::memSchedKindName(cfg_.memSched), measured.memSched,
        measured.memBankUtil);

    scale_ = 1.0;
    Cycle analytic = iterationCyclesFor(comp);
    NEUPIMS_ASSERT(analytic > 0);
    setScale(static_cast<double>(measured.iterationCycles) /
             static_cast<double>(analytic));
    return scale_;
}

// --- HybridIterationModel --------------------------------------------------

namespace {

/**
 * Batch-size bucket width of the forced-sample signature and the
 * anchor table. Admission grows serving batches one request at a
 * time; re-sampling on every single-request step would run the engine
 * on nearly every ramp-up iteration, so a "batch-size step" means
 * crossing a bucket boundary. 8 requests moves the analytic per-layer
 * cost by well under the 2% error budget between anchors.
 */
constexpr int kBatchBucket = 8;

int
roundUpToQuantum(int len)
{
    constexpr int q = HybridIterationModel::kQuantizeSeq;
    return ((len + q - 1) / q) * q;
}

/** @p comp with every sequence length rounded up to the quantum,
 * written into @p out (whose lists keep their storage). */
void
quantizeInto(const BatchComposition &comp, BatchComposition &out)
{
    out = comp;
    for (auto *groups : {&out.full, &out.sb1, &out.sb2}) {
        for (auto &ch : *groups) {
            for (int &len : ch)
                len = roundUpToQuantum(len);
        }
    }
}

int
meanKvLen(const BatchComposition &comp)
{
    long long sum = 0;
    int n = 0;
    for (const auto &ch : comp.full) {
        for (int len : ch) {
            sum += len;
            ++n;
        }
    }
    return n > 0 ? static_cast<int>(sum / n) : 0;
}

/** Anchor-table key: batch bucket (shared with the forced-sample
 * signature), quantized mean KV length, prefill present. */
std::tuple<int, int, bool>
anchorKeyOf(const MixedComposition &mix,
            const runtime::IterationSchedule &schedule)
{
    return {schedule.batchSize() / kBatchBucket,
            roundUpToQuantum(meanKvLen(mix.decode)),
            schedule.prefillTokens() > 0};
}

} // namespace

HybridIterationModel::HybridIterationModel(
    const DeviceConfig &cfg, const model::LlmConfig &model, int tp,
    int layers_per_device, int sample_every)
    : name_("hybrid(" + cfg.name + ",N=" +
            std::to_string(sample_every) + ")"),
      executor_(cfg, model, tp, layers_per_device),
      analytic_(cfg, model, tp, layers_per_device),
      sampleEvery_(sample_every)
{
    NEUPIMS_ASSERT(sampleEvery_ >= 1);
}

HybridIterationModel::Signature
HybridIterationModel::signatureOf(
    const runtime::IterationSchedule &schedule) const
{
    Signature sig;
    sig.batchBucket = schedule.batchSize() / kBatchBucket;
    sig.prefillTokens = schedule.prefillTokens();
    sig.preempted = !schedule.preemptedNow.empty();
    sig.restored = !schedule.restoredNow.empty();
    sig.swap = schedule.swapOutBytes > 0 || schedule.swapInBytes > 0;
    sig.faulted = !schedule.faultPreemptedNow.empty();
    sig.shed = !schedule.shedNow.empty();
    sig.straggler = schedule.stragglerInflation() > 1.0;
    return sig;
}

std::optional<Cycle>
HybridIterationModel::engineCycles(const MixedComposition &mix,
                                   bool run_engine)
{
    // Swap traffic is host-link transfer time — already on the
    // physical clock, so it adds outside the measured/analytic
    // rescaling below (it must not be stretched by the decode ratio).
    Cycle swap = analytic_.swapOverheadCycles(mix);
    if (!mix.hasDecode() && !mix.hasPrefill())
        return std::max<Cycle>(1, swap); // restore-only: the transfer
    if (!mix.hasDecode()) {
        // No decode work for the event engine to measure: rescale
        // the analytic value onto the measured clock with the latest
        // engine run's quotient so prefill-only spans are not on a
        // different time scale than the surrounding iterations.
        double scaled =
            static_cast<double>(analytic_.computeCyclesFor(mix)) *
            measuredOverAnalytic_;
        return static_cast<Cycle>(std::max(1.0, scaled)) + swap;
    }

    quantizeInto(mix.decode, quantized_);
    const BatchComposition &q = quantized_;
    auto it = cache_.find(q.full);
    if (it == cache_.end()) {
        if (!run_engine)
            return std::nullopt;
        int window =
            executor_.config().flags.subBatchInterleaving ? 3 : 2;
        auto result = executor_.runIteration(q, window, 1);
        it = cache_.emplace(q.full, result.iterationCycles).first;
        // Cache hits replay a latency; the memory system did not
        // execute again, so only engine runs add to the stats.
        memSchedAccum_ += result.memSched;
        bankUtilSum_ += result.memBankUtil;
        // Refresh the prefill-only quotient on engine runs only: it
        // is an approximation keyed to the latest measurement, and
        // cache hits must stay lookup-cheap.
        Cycle analytic = analytic_.iterationCyclesFor(q);
        if (analytic > 0) {
            measuredOverAnalytic_ =
                static_cast<double>(result.iterationCycles) /
                static_cast<double>(analytic);
        }
    }
    if (!mix.hasPrefill())
        return it->second + swap;
    // The engine executes decode only: scale its measurement by the
    // analytic mixed/decode ratio, in which the analytic scale cancels.
    Cycle analytic_mixed = analytic_.computeCyclesFor(mix);
    Cycle analytic_decode = analytic_.iterationCyclesFor(mix.decode);
    NEUPIMS_ASSERT(analytic_decode > 0);
    double scaled = static_cast<double>(it->second) *
                    (static_cast<double>(analytic_mixed) /
                     static_cast<double>(analytic_decode));
    return static_cast<Cycle>(std::max(1.0, scaled)) + swap;
}

Cycle
HybridIterationModel::iterationCycles(
    const runtime::IterationSchedule &schedule)
{
    Signature sig = signatureOf(schedule);
    bool boundary = (iter_ % static_cast<std::uint64_t>(sampleEvery_)) == 0;
    bool forced = haveSig_ && sig != lastSig_;
    ++iter_;
    lastSig_ = sig;
    haveSig_ = true;
    fillComposition(schedule, executor_.config().org.channels, mix_);
    const MixedComposition &mix = mix_;

    if (!boundary && !forced) {
        ++fastForwarded_;
        // A cached engine run is engine-accurate pricing for free:
        // prefer it over the anchored-ratio estimate. (Compositions
        // revisit constantly once KV quantization folds them.)
        if (std::optional<Cycle> cached = engineCycles(mix, false)) {
            ++ffCacheHits_;
            return priceStragglers(*cached, schedule);
        }
        Cycle analytic =
            priceStragglers(analytic_.iterationCyclesFor(mix), schedule);
        double r = ratio_;
        auto it = anchors_.find(anchorKeyOf(mix, schedule));
        if (it != anchors_.end())
            r = it->second;
        return static_cast<Cycle>(
            std::max(1.0, static_cast<double>(analytic) * r));
    }

    ++sampled_;
    if (forced && !boundary)
        ++forced_;
    Cycle measured = priceStragglers(*engineCycles(mix, true), schedule);
    // Re-anchor the measured/analytic ratio — but only on iterations
    // with compute: a swap-only boundary prices identically in both
    // models (host-link transfer time), and letting its ratio of ~1.0
    // overwrite the decode anchor would corrupt every following
    // fast-forward.
    if (mix.hasDecode() || mix.hasPrefill()) {
        Cycle analytic =
            priceStragglers(analytic_.iterationCyclesFor(mix), schedule);
        if (analytic > 0 && measured > 0) {
            ratio_ = static_cast<double>(measured) /
                     static_cast<double>(analytic);
            anchors_[anchorKeyOf(mix, schedule)] = ratio_;
        }
    }
    return measured;
}

runtime::MemSchedSummary
HybridIterationModel::memSchedSummary() const
{
    if (cache_.empty())
        return {};
    return summarizeMemSched(
        dram::memSchedKindName(executor_.config().memSched),
        memSchedAccum_, bankUtilSum_ / static_cast<double>(cache_.size()));
}

} // namespace neupims::core
