#include "model/compiler.h"

#include "common/log.h"

namespace neupims::model {

namespace {

constexpr std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

} // namespace

Flops
LayerPlan::gemmFlops() const
{
    Flops total = 0.0;
    for (const auto &g : gemms)
        total += g.flops();
    return total;
}

Bytes
LayerPlan::gemmWeightBytes() const
{
    Bytes total = 0;
    for (const auto &g : gemms)
        total += g.weightBytes();
    return total;
}

Compiler::Compiler(const LlmConfig &cfg, int tp, const MemShape &mem)
    : cfg_(cfg), tp_(tp), mem_(mem)
{
    NEUPIMS_ASSERT(tp_ >= 1);
    NEUPIMS_ASSERT(cfg_.numHeads % tp_ == 0,
                   "tensor parallelism must divide heads: ", cfg_.name,
                   " tp=", tp_);
    NEUPIMS_ASSERT(mem_.channels >= 1 && mem_.pageBytes >= 64);
}

int
Compiler::logitRowTiles(int seq_len) const
{
    // K cache of one request on its channel: seq_len rows of d_dev
    // fp16 elements, row-interleaved across the banks; one bank-row
    // tile covers pageBytes of it. Matches Algorithm 1 line 2:
    // (seq/B_chnl) * (E/P_DRAM) tiles distributed over B_chnl banks.
    Bytes bytes = static_cast<Bytes>(seq_len) *
                  static_cast<Bytes>(cfg_.dModelPerDevice(tp_)) * 2;
    return static_cast<int>(ceilDiv(static_cast<std::int64_t>(bytes),
                                    static_cast<std::int64_t>(
                                        mem_.pageBytes)));
}

int
Compiler::attendRowTiles(int seq_len) const
{
    // V cache is the same byte volume, head-interleaved (Alg. 1 l.5).
    return logitRowTiles(seq_len);
}

PrefillAttnWork
Compiler::prefillAttnWorkFor(const PrefillSliceSpec &slice) const
{
    NEUPIMS_ASSERT(slice.newTokens >= 1 && slice.startToken >= 0);
    const std::int64_t d_dev = cfg_.dModelPerDevice(tp_);
    const std::int64_t heads_dev = cfg_.headsPerDevice(tp_);

    PrefillAttnWork work;
    work.channel = slice.channel;
    work.newTokens = slice.newTokens;
    work.contextLen = slice.startToken + slice.newTokens;
    // Causal: new query row i (1-based within the slice) attends to
    // startToken + i keys, per device-resident head.
    const std::uint64_t n = static_cast<std::uint64_t>(slice.newTokens);
    work.softmaxElems =
        (n * static_cast<std::uint64_t>(slice.startToken) +
         n * (n + 1) / 2) *
        static_cast<std::uint64_t>(heads_dev);
    // Logit reads the K window, attend the V window (fp16).
    work.kvReadBytes = 2 * static_cast<Bytes>(work.contextLen) *
                       static_cast<Bytes>(d_dev) * 2;
    work.flops = work.logitShape(d_dev).flops() +
                 work.attendShape(d_dev).flops();
    return work;
}

LayerPlan
Compiler::compileLayer(
    const std::vector<std::vector<int>> &seq_lens_per_channel,
    const std::vector<PrefillSliceSpec> &prefill) const
{
    LayerPlan plan;
    compileLayer(seq_lens_per_channel, prefill, plan);
    return plan;
}

void
Compiler::compileLayer(
    const std::vector<std::vector<int>> &seq_lens_per_channel,
    const std::vector<PrefillSliceSpec> &prefill, LayerPlan &plan) const
{
    NEUPIMS_ASSERT(static_cast<int>(seq_lens_per_channel.size()) <=
                   mem_.channels);

    const auto channels = static_cast<std::size_t>(mem_.channels);
    plan.gemms.clear();
    plan.mha.requests.resize(channels);
    for (auto &reqs : plan.mha.requests)
        reqs.clear();
    plan.mha.logit.assign(channels, PimChannelWork{});
    plan.mha.attend.assign(channels, PimChannelWork{});
    plan.mha.kvAppendBytes.assign(channels, 0);
    plan.mha.totalSoftmaxElems = 0;
    plan.mha.kvReadBytes = 0;
    plan.mha.headsPerDevice =
        static_cast<int>(cfg_.headsPerDevice(tp_));
    plan.prefillAttn.clear();
    plan.prefillTokens = 0;

    const std::int64_t d = cfg_.dModel;
    const std::int64_t d_dev = cfg_.dModelPerDevice(tp_);
    const std::int64_t heads_dev = cfg_.headsPerDevice(tp_);
    const Bytes page = mem_.pageBytes;
    const Bytes burst = mem_.burstBytes;

    int batch = 0;
    for (ChannelId ch = 0;
         ch < static_cast<ChannelId>(seq_lens_per_channel.size());
         ++ch) {
        auto &logit = plan.mha.logit[ch];
        auto &attend = plan.mha.attend[ch];
        for (int seq : seq_lens_per_channel[ch]) {
            NEUPIMS_ASSERT(seq >= 1, "sequence length must be >= 1");
            ++batch;
            PimRequestWork req;
            req.seqLen = seq;

            req.logit.rowTiles = logitRowTiles(seq);
            // Query vector: d_dev fp16 elements staged in the global
            // vector buffer page by page (Alg. 1 line 3).
            req.logit.gwrites =
                static_cast<int>(ceilDiv(d_dev * 2, page));
            // Logit results: seq values per device-resident head.
            Bytes logit_bytes = static_cast<Bytes>(seq) *
                                static_cast<Bytes>(heads_dev) * 2;
            req.logit.resultBursts = static_cast<int>(
                ceilDiv(static_cast<std::int64_t>(logit_bytes),
                        static_cast<std::int64_t>(burst)));
            req.softmaxElems = static_cast<std::uint64_t>(seq) *
                               static_cast<std::uint64_t>(heads_dev);

            req.attend.rowTiles = attendRowTiles(seq);
            // Softmaxed logits staged per head (Alg. 1 line 6).
            req.attend.gwrites = static_cast<int>(
                ceilDiv(static_cast<std::int64_t>(logit_bytes),
                        static_cast<std::int64_t>(page)));
            // Attend results: one d_dev-wide context vector.
            req.attend.resultBursts =
                static_cast<int>(ceilDiv(d_dev * 2, burst));

            plan.mha.kvReadBytes += 2 * static_cast<Bytes>(seq) *
                                    static_cast<Bytes>(d_dev) * 2;

            logit.rowTiles += req.logit.rowTiles;
            logit.gwrites += req.logit.gwrites;
            logit.resultBursts += req.logit.resultBursts;
            logit.softmaxElems += req.softmaxElems;
            attend.rowTiles += req.attend.rowTiles;
            attend.gwrites += req.attend.gwrites;
            attend.resultBursts += req.attend.resultBursts;

            plan.mha.requests[ch].push_back(req);
        }
        // Each request appends one K and one V vector per layer.
        plan.mha.kvAppendBytes[ch] =
            static_cast<Bytes>(seq_lens_per_channel[ch].size()) *
            cfg_.kvBytesPerTokenPerLayer(tp_);
        plan.mha.totalSoftmaxElems += logit.softmaxElems;
    }

    plan.batch = batch;

    // Prefill slices: their prompt tokens join the weight GEMMs as
    // extra activation rows, their attention runs NPU-side, and their
    // fresh K/V vectors append to their channel's cache.
    for (const auto &slice : prefill) {
        NEUPIMS_ASSERT(slice.channel >= 0 &&
                           slice.channel < mem_.channels,
                       "prefill slice on invalid channel ",
                       slice.channel);
        plan.prefillTokens += slice.newTokens;
        plan.mha.kvAppendBytes[slice.channel] +=
            static_cast<Bytes>(slice.newTokens) *
            cfg_.kvBytesPerTokenPerLayer(tp_);
        plan.prefillAttn.push_back(prefillAttnWorkFor(slice));
    }

    NEUPIMS_ASSERT(batch + plan.prefillTokens >= 1, "empty batch");

    // Every activation row — one per decode request, one per prefill
    // token — streams through the same weight GEMMs.
    const std::int64_t rows = batch + plan.prefillTokens;
    auto add_gemm = [&plan](std::string label, std::int64_t m,
                            std::int64_t k, std::int64_t n) {
        plan.gemms.push_back(GemmWork{std::move(label),
                                      npu::GemmShape{m, k, n}});
    };
    add_gemm("qkv_generation", rows, d, 3 * d_dev);
    add_gemm("projection", rows, d_dev, d);
    add_gemm("ffn_up", rows, d, cfg_.ffnDim() / tp_);
    add_gemm("ffn_down", rows, cfg_.ffnDim() / tp_, d);

    // Two layer norms, two residual adds over [rows, d] activations.
    plan.vectorElems = static_cast<std::uint64_t>(rows) *
                       static_cast<std::uint64_t>(d) * 4;
}

} // namespace neupims::model
