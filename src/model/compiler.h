/**
 * @file
 * The NeuPIMs compiler framework (paper §4.4): lowers a model
 * specification plus the current batch composition into the concrete
 * per-layer work units the execution engine schedules — batched GEMM
 * jobs for the systolic arrays, per-channel PIM GEMV kernels for the
 * multi-head attention, vector-unit element counts, and the KV-cache
 * append traffic.
 *
 * Tile arithmetic deliberately mirrors Algorithm 1 (MHA latency
 * estimation): the number of bank-row tiles per GEMV is
 * (seq_len / banks) * (E / page) for logits and the transposed
 * equivalent for attend, so the runtime's estimator and the compiled
 * kernels agree (tested in tests/model).
 */

#ifndef NEUPIMS_MODEL_COMPILER_H_
#define NEUPIMS_MODEL_COMPILER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "model/llm_config.h"
#include "npu/systolic_array.h"

namespace neupims::model {

/** Memory geometry the compiler needs (subset of dram::Organization). */
struct MemShape
{
    int channels = 32;
    int banksPerChannel = 32;
    Bytes pageBytes = 1024;
    Bytes burstBytes = 64;
};

/** One batched weight-activation GEMM on the systolic arrays. */
struct GemmWork
{
    std::string label;
    npu::GemmShape shape;

    Flops flops() const { return shape.flops(); }
    Bytes weightBytes() const { return shape.weightBytes(); }
};

/** One GEMV kernel's footprint (logit or attend of one request). */
struct GemvKernelWork
{
    int rowTiles = 0;      ///< bank-rows of matrix operand
    int gwrites = 0;       ///< operand-vector chunks staged
    int resultBursts = 0;  ///< 64 B result bursts back to the host

    bool empty() const { return rowTiles == 0; }
};

/** The attention work of one request on its channel. */
struct PimRequestWork
{
    int seqLen = 0;
    GemvKernelWork logit;
    GemvKernelWork attend;
    std::uint64_t softmaxElems = 0;
};

/**
 * One request's prefill slice as the scheduler hands it down: the
 * next @p newTokens prompt tokens of a request whose KV lives on
 * @p channel, @p startToken prompt tokens already processed by
 * earlier chunks.
 */
struct PrefillSliceSpec
{
    ChannelId channel = 0;
    int startToken = 0;
    int newTokens = 0;
};

/**
 * The NPU-side attention work of one prefill slice: causal
 * self-attention of newTokens fresh queries against the
 * startToken + newTokens keys resident so far. Compute-bound batched
 * GEMMs on the systolic arrays — no PIM GEMV is emitted for prefill.
 */
struct PrefillAttnWork
{
    ChannelId channel = 0;
    int newTokens = 0;
    int contextLen = 0; ///< startToken + newTokens (causal window)
    /** Softmax elements: per device head, each new query row i
     * attends to startToken + i keys (causal). */
    std::uint64_t softmaxElems = 0;
    Bytes kvReadBytes = 0; ///< K+V bytes streamed from the channel
    Flops flops = 0.0;     ///< logit + attend MACs x 2

    /** Logit GEMM [new x d_dev] x [d_dev x ctx] (summed over heads). */
    npu::GemmShape logitShape(std::int64_t d_dev) const
    {
        return npu::GemmShape{newTokens, d_dev, contextLen};
    }

    /** Attend GEMM [new x ctx] x [ctx x d_dev] (summed over heads). */
    npu::GemmShape attendShape(std::int64_t d_dev) const
    {
        return npu::GemmShape{newTokens, contextLen, d_dev};
    }
};

/** Channel-level aggregate of a GEMV phase (analysis/tests). */
struct PimChannelWork
{
    int rowTiles = 0;
    int gwrites = 0;
    int resultBursts = 0;
    std::uint64_t softmaxElems = 0;

    bool empty() const { return rowTiles == 0; }
};

/** The multi-head attention work of one layer, split per channel. */
struct MhaWork
{
    /** Per-request kernels grouped by channel (execution input). */
    std::vector<std::vector<PimRequestWork>> requests;
    /** Channel aggregates (analysis, NPU-only streaming, tests). */
    std::vector<PimChannelWork> logit;
    std::vector<PimChannelWork> attend;
    std::vector<Bytes> kvAppendBytes; ///< per-channel K+V token writes
    std::uint64_t totalSoftmaxElems = 0;
    Bytes kvReadBytes = 0; ///< total K+V bytes the GEMVs consume
    int headsPerDevice = 1; ///< per-head kernel split for the baseline
};

/**
 * Everything one decoder layer needs for one iteration. A plan can be
 * decode-only (the generation phase, as before the phase model),
 * prefill-only, or mixed: the weight GEMMs carry
 * batch + prefillTokens activation rows, decode MHA runs as PIM GEMV
 * (or NPU streaming), and prefill attention runs NPU-side.
 */
struct LayerPlan
{
    std::vector<GemmWork> gemms; ///< QKV, projection, FFN up, FFN down
    MhaWork mha;                 ///< decode-phase attention (PIM GEMV)
    std::vector<PrefillAttnWork> prefillAttn; ///< NPU prefill attention
    std::uint64_t vectorElems = 0; ///< layer norms + residuals
    int batch = 0;         ///< decode-phase requests
    int prefillTokens = 0; ///< prompt tokens prefilled this iteration

    Flops gemmFlops() const;
    Bytes gemmWeightBytes() const;
};

class Compiler
{
  public:
    Compiler(const LlmConfig &cfg, int tp, const MemShape &mem);

    const LlmConfig &model() const { return cfg_; }
    int tp() const { return tp_; }
    const MemShape &memShape() const { return mem_; }

    /**
     * Compile one decoder layer for a batch whose requests have been
     * assigned to channels: decode requests as per-channel PIM GEMV
     * kernels, plus @p prefill slices whose prompt tokens join the
     * weight GEMMs as extra activation rows, emit NPU-side causal
     * attention work, and append their K/V vectors to their channel.
     * An empty decode batch with non-empty prefill is valid (a
     * dedicated prefill iteration).
     *
     * @param seq_lens_per_channel current KV length of every request,
     *        grouped by its PIM channel (index = ChannelId).
     * @param plan overwritten in full; its lists keep their storage,
     *        so a caller compiling into the same plan every iteration
     *        allocates nothing once it has grown (DESIGN.md §6).
     */
    void compileLayer(
        const std::vector<std::vector<int>> &seq_lens_per_channel,
        const std::vector<PrefillSliceSpec> &prefill,
        LayerPlan &plan) const;

    /** compileLayer into a fresh plan (engine windows, benches). */
    LayerPlan compileLayer(
        const std::vector<std::vector<int>> &seq_lens_per_channel,
        const std::vector<PrefillSliceSpec> &prefill = {}) const;

    /** The NPU attention work of one prefill slice. */
    PrefillAttnWork prefillAttnWorkFor(
        const PrefillSliceSpec &slice) const;

    /** Per-request logit GEMV tiles (Algorithm 1 numerator). */
    int logitRowTiles(int seq_len) const;
    /** Per-request attend GEMV tiles. */
    int attendRowTiles(int seq_len) const;

  private:
    LlmConfig cfg_;
    int tp_;
    MemShape mem_;
};

} // namespace neupims::model

#endif // NEUPIMS_MODEL_COMPILER_H_
