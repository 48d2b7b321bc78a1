/**
 * @file
 * Unit tests for the compiler: GEMM plans, per-request PIM kernels,
 * Algorithm-1 consistency and KV traffic accounting.
 */

#include <gtest/gtest.h>

#include "model/compiler.h"
#include "runtime/latency_model.h"

namespace neupims::model {
namespace {

class CompilerTest : public ::testing::Test
{
  protected:
    CompilerTest() : compiler(cfg, 4, mem) {}

    LlmConfig cfg = gpt3_30b();
    MemShape mem; // 32 channels, 32 banks, 1 KB pages
    Compiler compiler;
};

TEST_F(CompilerTest, FourGemmsWithExpectedShapes)
{
    std::vector<std::vector<int>> lens(32);
    lens[0] = {100, 200};
    auto plan = compiler.compileLayer(lens);
    ASSERT_EQ(plan.gemms.size(), 4u);
    EXPECT_EQ(plan.batch, 2);
    // QKV: [B, d] x [d, 3 d/tp]
    EXPECT_EQ(plan.gemms[0].shape.m, 2);
    EXPECT_EQ(plan.gemms[0].shape.k, 7168);
    EXPECT_EQ(plan.gemms[0].shape.n, 3 * 1792);
    // FFN up: [B, d] x [d, 4d/tp]
    EXPECT_EQ(plan.gemms[2].shape.n, 4 * 7168 / 4);
}

TEST_F(CompilerTest, WeightBytesMatchModelConfig)
{
    std::vector<std::vector<int>> lens(32);
    lens[3] = {50};
    auto plan = compiler.compileLayer(lens);
    EXPECT_EQ(plan.gemmWeightBytes(), cfg.weightBytesPerLayer(4));
}

TEST_F(CompilerTest, GemmFlopsMatchClosedFormAtTpOne)
{
    // A decode batch's weight GEMMs on the whole model: QKV 3d^2,
    // projection d^2 and the two FFN matrices 4d^2 each, i.e.
    // 2 * batch * 12 d^2 FLOPs.
    const int batch = 16;
    Compiler whole(cfg, 1, mem);
    std::vector<std::vector<int>> lens(32);
    lens[0].assign(batch, 100);
    auto plan = whole.compileLayer(lens);
    const double d = static_cast<double>(cfg.dModel);
    EXPECT_DOUBLE_EQ(plan.gemmFlops(), 2.0 * batch * 12 * d * d);
}

TEST_F(CompilerTest, LogitTilesMatchAlgorithmOneNumerator)
{
    // Algorithm 1 line 2: tiles = (seq/B_chnl) * (E/P_DRAM) over the
    // channel's banks; our rowTiles is the same product expressed in
    // bank-rows: seq * E * 2B / pageBytes.
    int seq = 512;
    int tiles = compiler.logitRowTiles(seq);
    EXPECT_EQ(tiles, static_cast<int>(512LL * 1792 * 2 / 1024));
    EXPECT_EQ(compiler.attendRowTiles(seq), tiles);
}

TEST_F(CompilerTest, RaggedSequenceRoundsUp)
{
    EXPECT_EQ(compiler.logitRowTiles(1),
              static_cast<int>((1792 * 2 + 1023) / 1024));
}

TEST_F(CompilerTest, PerRequestWorkMatchesChannelAggregate)
{
    std::vector<std::vector<int>> lens(32);
    lens[2] = {64, 128, 256};
    auto plan = compiler.compileLayer(lens);
    const auto &agg = plan.mha.logit[2];
    int tiles = 0, gwrites = 0, bursts = 0;
    std::uint64_t elems = 0;
    for (const auto &req : plan.mha.requests[2]) {
        tiles += req.logit.rowTiles;
        gwrites += req.logit.gwrites;
        bursts += req.logit.resultBursts;
        elems += req.softmaxElems;
    }
    EXPECT_EQ(tiles, agg.rowTiles);
    EXPECT_EQ(gwrites, agg.gwrites);
    EXPECT_EQ(bursts, agg.resultBursts);
    EXPECT_EQ(elems, agg.softmaxElems);
}

TEST_F(CompilerTest, SoftmaxElemsAreSeqTimesHeads)
{
    std::vector<std::vector<int>> lens(32);
    lens[0] = {100};
    auto plan = compiler.compileLayer(lens);
    // 14 heads per device under TP=4.
    EXPECT_EQ(plan.mha.totalSoftmaxElems, 100u * 14);
}

TEST_F(CompilerTest, KvAppendBytesPerChannel)
{
    std::vector<std::vector<int>> lens(32);
    lens[4] = {10, 20};
    lens[9] = {30};
    auto plan = compiler.compileLayer(lens);
    EXPECT_EQ(plan.mha.kvAppendBytes[4],
              2 * cfg.kvBytesPerTokenPerLayer(4));
    EXPECT_EQ(plan.mha.kvAppendBytes[9],
              cfg.kvBytesPerTokenPerLayer(4));
    EXPECT_EQ(plan.mha.kvAppendBytes[0], 0u);
}

TEST_F(CompilerTest, KvReadBytesCoverKAndV)
{
    std::vector<std::vector<int>> lens(32);
    lens[0] = {128};
    auto plan = compiler.compileLayer(lens);
    EXPECT_EQ(plan.mha.kvReadBytes,
              static_cast<Bytes>(2) * 128 * 1792 * 2);
}

TEST_F(CompilerTest, EstimatorTracksCompiledTiles)
{
    // Algorithm 1's estimate must scale with the compiled tile count:
    // doubling the sequence doubles both.
    runtime::MhaLatencyParams params;
    params.embeddingSize = 1792;
    params.banksPerChannel = 32;
    params.dramPageElems = 512;
    params.numHeads = 14;
    runtime::MhaLatencyEstimator est(params);
    double l1 = est.estimate(256);
    double l2 = est.estimate(512);
    int t1 = compiler.logitRowTiles(256);
    int t2 = compiler.logitRowTiles(512);
    EXPECT_NEAR(l2 / l1, static_cast<double>(t2) / t1, 0.2);
}

TEST_F(CompilerTest, VectorElemsCoverNormsAndResiduals)
{
    std::vector<std::vector<int>> lens(32);
    lens[0] = {10, 10, 10};
    auto plan = compiler.compileLayer(lens);
    EXPECT_EQ(plan.vectorElems, 3u * 7168 * 4);
}

TEST_F(CompilerTest, MixedPlanAddsPrefillRowsToGemms)
{
    std::vector<std::vector<int>> lens(32);
    lens[0] = {100, 200};
    std::vector<PrefillSliceSpec> prefill = {{2, 0, 64}, {5, 128, 32}};
    auto plan = compiler.compileLayer(lens, prefill);

    EXPECT_EQ(plan.batch, 2);
    EXPECT_EQ(plan.prefillTokens, 96);
    // Every prompt token is an extra activation row in all 4 GEMMs.
    for (const auto &g : plan.gemms)
        EXPECT_EQ(g.shape.m, 2 + 96);
    // Vector ops cover decode + prefill rows.
    EXPECT_EQ(plan.vectorElems, (2u + 96u) * 7168 * 4);
    // Decode MHA is untouched by prefill (no PIM GEMV for prompts).
    EXPECT_EQ(plan.mha.requests[0].size(), 2u);
    EXPECT_EQ(plan.mha.requests[2].size(), 0u);
    ASSERT_EQ(plan.prefillAttn.size(), 2u);
}

TEST_F(CompilerTest, PrefillAttnWorkIsCausal)
{
    // Second chunk of a prompt: 32 new queries against 128 + 32 keys.
    PrefillSliceSpec slice{5, 128, 32};
    auto work = compiler.prefillAttnWorkFor(slice);
    EXPECT_EQ(work.channel, 5);
    EXPECT_EQ(work.newTokens, 32);
    EXPECT_EQ(work.contextLen, 160);
    // Causal softmax: per device head, query i sees 128 + i keys.
    std::uint64_t rows = 32ull * 128 + 32ull * 33 / 2;
    EXPECT_EQ(work.softmaxElems, rows * (56 / 4));
    // K and V windows, fp16, d_dev wide.
    EXPECT_EQ(work.kvReadBytes, 2ull * 160 * 1792 * 2);
    // Logit + attend MACs: 2 GEMMs of 2*new*ctx*d_dev FLOPs each.
    EXPECT_DOUBLE_EQ(work.flops, 2.0 * 2.0 * 32 * 160 * 1792);
}

TEST_F(CompilerTest, PrefillAppendsKvOnSliceChannel)
{
    std::vector<std::vector<int>> lens(32);
    lens[0] = {100};
    std::vector<PrefillSliceSpec> prefill = {{0, 0, 48}, {9, 16, 16}};
    auto plan = compiler.compileLayer(lens, prefill);
    Bytes per_tok = cfg.kvBytesPerTokenPerLayer(4);
    // Channel 0: one decode token + 48 prefill tokens.
    EXPECT_EQ(plan.mha.kvAppendBytes[0], per_tok * (1 + 48));
    // Channel 9: prefill only.
    EXPECT_EQ(plan.mha.kvAppendBytes[9], per_tok * 16);
}

TEST_F(CompilerTest, PrefillOnlyPlanHasNoDecodeWork)
{
    std::vector<std::vector<int>> lens(32);
    std::vector<PrefillSliceSpec> prefill = {{0, 0, 256}};
    auto plan = compiler.compileLayer(lens, prefill);
    EXPECT_EQ(plan.batch, 0);
    EXPECT_EQ(plan.prefillTokens, 256);
    for (const auto &g : plan.gemms)
        EXPECT_EQ(g.shape.m, 256);
    EXPECT_EQ(plan.mha.kvReadBytes, 0u);
    EXPECT_EQ(plan.mha.totalSoftmaxElems, 0u);
}

TEST_F(CompilerTest, InPlaceRecompileMatchesFreshPlan)
{
    // Compiling into a plan that holds a larger mixed batch must leave
    // exactly what a fresh plan holds: every list refilled, every sum
    // restarted.
    std::vector<std::vector<int>> big(32), small(32);
    big[0] = {100, 200, 300};
    big[7] = {50};
    small[3] = {40};
    LayerPlan plan;
    compiler.compileLayer(big, {{2, 0, 64}, {5, 128, 32}}, plan);
    compiler.compileLayer(small, {{9, 16, 16}}, plan);
    const LayerPlan fresh = compiler.compileLayer(small, {{9, 16, 16}});

    ASSERT_EQ(plan.gemms.size(), fresh.gemms.size());
    for (std::size_t i = 0; i < plan.gemms.size(); ++i) {
        EXPECT_EQ(plan.gemms[i].label, fresh.gemms[i].label);
        EXPECT_EQ(plan.gemms[i].shape.m, fresh.gemms[i].shape.m);
        EXPECT_EQ(plan.gemms[i].shape.k, fresh.gemms[i].shape.k);
        EXPECT_EQ(plan.gemms[i].shape.n, fresh.gemms[i].shape.n);
    }
    for (std::size_t ch = 0; ch < 32; ++ch) {
        ASSERT_EQ(plan.mha.requests[ch].size(),
                  fresh.mha.requests[ch].size());
        for (std::size_t r = 0; r < plan.mha.requests[ch].size(); ++r)
            EXPECT_EQ(plan.mha.requests[ch][r].seqLen,
                      fresh.mha.requests[ch][r].seqLen);
        EXPECT_EQ(plan.mha.logit[ch].rowTiles, fresh.mha.logit[ch].rowTiles);
        EXPECT_EQ(plan.mha.logit[ch].softmaxElems,
                  fresh.mha.logit[ch].softmaxElems);
        EXPECT_EQ(plan.mha.attend[ch].gwrites, fresh.mha.attend[ch].gwrites);
    }
    EXPECT_EQ(plan.mha.kvAppendBytes, fresh.mha.kvAppendBytes);
    EXPECT_EQ(plan.mha.totalSoftmaxElems, fresh.mha.totalSoftmaxElems);
    EXPECT_EQ(plan.mha.kvReadBytes, fresh.mha.kvReadBytes);
    EXPECT_EQ(plan.mha.headsPerDevice, fresh.mha.headsPerDevice);
    ASSERT_EQ(plan.prefillAttn.size(), 1u);
    EXPECT_EQ(plan.prefillAttn[0].channel, 9);
    EXPECT_EQ(plan.prefillAttn[0].kvReadBytes,
              fresh.prefillAttn[0].kvReadBytes);
    EXPECT_EQ(plan.vectorElems, fresh.vectorElems);
    EXPECT_EQ(plan.batch, 1);
    EXPECT_EQ(plan.prefillTokens, 16);
}

TEST(CompilerDeathTest, EmptyBatchPanics)
{
    MemShape mem;
    Compiler compiler(gpt3_7b(), 4, mem);
    std::vector<std::vector<int>> lens(32);
    EXPECT_DEATH((void)compiler.compileLayer(lens), "empty batch");
}

TEST(CompilerDeathTest, BadTpPanics)
{
    MemShape mem;
    EXPECT_DEATH(Compiler(gpt3_30b(), 5, mem), "tensor parallelism");
}

} // namespace
} // namespace neupims::model
