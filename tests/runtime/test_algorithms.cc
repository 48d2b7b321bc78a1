/**
 * @file
 * Unit and property tests for the paper's three algorithms:
 * Algorithm 1 (MHA latency estimation), Algorithm 2 (greedy min-load
 * bin packing) and Algorithm 3 (sub-batch partitioning).
 */

#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.h"
#include "core/batch_builder.h"
#include "runtime/bin_packing.h"
#include "runtime/latency_model.h"

namespace neupims::runtime {
namespace {

MhaLatencyParams
testParams()
{
    MhaLatencyParams p;
    p.embeddingSize = 4096;
    p.tileLatency = 10.0;
    p.gwriteLatency = 5.0;
    p.dramPageElems = 512;
    p.banksPerChannel = 32;
    p.numHeads = 32;
    return p;
}

// --- Algorithm 1 ------------------------------------------------------

TEST(MhaLatencyEstimation, MatchesAlgorithmOneByHand)
{
    MhaLatencyEstimator est(testParams());
    const double seq = 512;
    // Key^T x Query: tiles = (512/32) * (4096/512) = 128, gwrites 8.
    double expect = 5.0 * 8 + 10.0 * 128;
    // Logits x Value: tiles = (128/32) * (512/512 * 32) = 128,
    // gwrites (512/512)*32 = 32.
    expect += 5.0 * 32 + 10.0 * 128;
    EXPECT_NEAR(est.estimate(static_cast<int>(seq)), expect, 1e-9);
}

TEST(MhaLatencyEstimation, LinearInSequenceLength)
{
    MhaLatencyEstimator est(testParams());
    double l256 = est.estimate(256);
    double l512 = est.estimate(512);
    double l1024 = est.estimate(1024);
    EXPECT_GT(l512, l256);
    // Linear in seq: the increment over a doubled interval doubles.
    EXPECT_NEAR(l1024 - l512, 2.0 * (l512 - l256), 1e-6);
}

TEST(MhaLatencyEstimation, MoreBanksLowerLatency)
{
    auto p = testParams();
    MhaLatencyEstimator few(p);
    p.banksPerChannel = 64;
    MhaLatencyEstimator many(p);
    EXPECT_LT(many.estimate(512), few.estimate(512));
}

// --- Algorithm 2 ------------------------------------------------------

std::vector<Request>
makeRequests(const std::vector<int> &seq_lens)
{
    std::vector<Request> reqs(seq_lens.size());
    for (std::size_t i = 0; i < seq_lens.size(); ++i) {
        reqs[i].id = static_cast<RequestId>(i);
        reqs[i].inputLength = seq_lens[i];
    }
    return reqs;
}

std::vector<Request *>
pointers(std::vector<Request> &reqs)
{
    std::vector<Request *> out;
    for (auto &r : reqs)
        out.push_back(&r);
    return out;
}

TEST(GreedyMinLoadBinPacking, SingleRequestGoesToLeastLoaded)
{
    MhaLatencyEstimator est(testParams());
    auto reqs = makeRequests({100});
    auto ptrs = pointers(reqs);
    std::vector<double> loads = {50.0, 10.0, 30.0};
    auto out = greedyMinLoadBinPacking(ptrs, loads, est);
    EXPECT_EQ(reqs[0].channel, 1);
    EXPECT_NEAR(out[1], 10.0 + est.estimate(100), 1e-9);
}

TEST(GreedyMinLoadBinPacking, SortsDescendingBeforePlacing)
{
    // Longest-first: the two long requests land on distinct channels.
    MhaLatencyEstimator est(testParams());
    auto reqs = makeRequests({10, 1000, 990, 20});
    auto ptrs = pointers(reqs);
    auto loads = greedyMinLoadBinPacking(
        ptrs, std::vector<double>(2, 0.0), est);
    EXPECT_NE(reqs[1].channel, reqs[2].channel);
    EXPECT_LT(loadImbalance(loads), 1.1);
}

TEST(GreedyMinLoadBinPacking, BeatsRoundRobinOnSkewedLoads)
{
    MhaLatencyEstimator est(testParams());
    Rng rng(5);
    std::vector<int> lens;
    for (int i = 0; i < 64; ++i)
        lens.push_back(static_cast<int>(rng.lognormal(5.0, 0.9)) + 1);

    auto reqs_a = makeRequests(lens);
    auto ptrs_a = pointers(reqs_a);
    auto greedy_loads = greedyMinLoadBinPacking(
        ptrs_a, std::vector<double>(8, 0.0), est);

    auto reqs_b = makeRequests(lens);
    auto ptrs_b = pointers(reqs_b);
    int cursor = 0;
    roundRobinAssign(ptrs_b, 8, cursor);
    std::vector<double> rr_loads(8, 0.0);
    for (const auto &r : reqs_b)
        rr_loads[r.channel] += est.estimate(r.currentSeqLen());

    EXPECT_LT(loadImbalance(greedy_loads), loadImbalance(rr_loads));
}

TEST(RoundRobinAssign, CursorWrapsAcrossCalls)
{
    auto reqs = makeRequests({1, 1, 1});
    auto ptrs = pointers(reqs);
    int cursor = 2;
    roundRobinAssign(ptrs, 4, cursor);
    EXPECT_EQ(reqs[0].channel, 2);
    EXPECT_EQ(reqs[1].channel, 3);
    EXPECT_EQ(reqs[2].channel, 0);
    EXPECT_EQ(cursor, 1);
}

TEST(LoadImbalance, PerfectBalanceIsOne)
{
    EXPECT_DOUBLE_EQ(loadImbalance({5.0, 5.0, 5.0}), 1.0);
    EXPECT_DOUBLE_EQ(loadImbalance({0.0, 0.0}), 1.0);
    EXPECT_DOUBLE_EQ(loadImbalance({9.0, 3.0}), 1.5);
}

/** Property: greedy min-load keeps imbalance within the 4/3 bound
 * family for makespan scheduling (LPT gives 4/3 - 1/3m). */
class PackingProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(PackingProperty, ImbalanceBounded)
{
    MhaLatencyEstimator est(testParams());
    Rng rng(GetParam());
    std::vector<int> lens;
    int n = 32 + static_cast<int>(rng.uniformInt(0, 96));
    for (int i = 0; i < n; ++i)
        lens.push_back(static_cast<int>(rng.lognormal(5.0, 1.0)) + 1);
    auto reqs = makeRequests(lens);
    auto ptrs = pointers(reqs);
    const int channels = 8;
    auto loads = greedyMinLoadBinPacking(
        ptrs, std::vector<double>(channels, 0.0), est);
    // LPT bound plus slack for the constant GWRITE terms.
    EXPECT_LT(loadImbalance(loads), 4.0 / 3.0 + 0.2);
    // Every request got a channel in range.
    for (const auto &r : reqs) {
        EXPECT_GE(r.channel, 0);
        EXPECT_LT(r.channel, channels);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackingProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// --- Algorithm 3 ------------------------------------------------------

using core::BatchComposition;
using core::composeBatch;
using core::requestCount;

/** Assign @p reqs[i] to @p channels[i]. */
void
assignChannels(std::vector<Request> &reqs,
               const std::vector<ChannelId> &channels)
{
    for (std::size_t i = 0; i < reqs.size(); ++i)
        reqs[i].channel = channels[i];
}

TEST(SubBatchPartitioning, EvenChannelSplitsExactly)
{
    auto reqs = makeRequests({1, 2, 3, 4});
    assignChannels(reqs, {0, 0, 1, 1});
    BatchComposition comp;
    composeBatch(pointers(reqs), 2, comp);
    EXPECT_EQ(requestCount(comp.sb1), 2);
    EXPECT_EQ(requestCount(comp.sb2), 2);
    EXPECT_EQ(comp.sb1[0].size(), 1u);
    EXPECT_EQ(comp.sb2[0].size(), 1u);
}

TEST(SubBatchPartitioning, OddCountsAlternateViaTurn)
{
    // Three channels with odd counts: the extra request alternates
    // between sub-batches (Algorithm 3's `turn`).
    auto reqs = makeRequests(std::vector<int>(9, 10));
    assignChannels(reqs, {0, 0, 0, 1, 1, 1, 2, 2, 2});
    BatchComposition comp;
    composeBatch(pointers(reqs), 3, comp);
    EXPECT_EQ(comp.sb1[0].size(), 2u); // turn=true: ceil
    EXPECT_EQ(comp.sb1[1].size(), 1u); // turn=false: floor
    EXPECT_EQ(comp.sb1[2].size(), 2u); // turn=true again
    EXPECT_LE(std::abs(requestCount(comp.sb1) - requestCount(comp.sb2)),
              1);
}

TEST(SubBatchPartitioning, EmptyChannelsAreFine)
{
    auto reqs = makeRequests({10});
    assignChannels(reqs, {2});
    BatchComposition comp;
    composeBatch(pointers(reqs), 4, comp);
    EXPECT_EQ(requestCount(comp.sb1) + requestCount(comp.sb2), 1);
}

TEST(ComposeBatch, GroupsAndPreservesOrder)
{
    auto reqs = makeRequests({1, 2, 3});
    assignChannels(reqs, {1, 0, 1});
    BatchComposition comp;
    composeBatch(pointers(reqs), 2, comp);
    EXPECT_EQ(comp.full[1], (std::vector<int>{1, 3}));
    EXPECT_EQ(comp.full[0], (std::vector<int>{2}));
}

TEST(ComposeBatch, RefillMatchesAFreshFill)
{
    // Composing into storage a larger batch filled before must leave
    // exactly what a fresh fill does: no request of the earlier batch
    // survives in any list.
    auto reqs = makeRequests({1, 2, 3, 4, 5, 6, 7});
    for (std::size_t i = 0; i < reqs.size(); ++i)
        reqs[i].channel = static_cast<ChannelId>(i % 3);
    std::vector<Request *> big = pointers(reqs);
    std::vector<Request *> small = {&reqs[5], &reqs[1], &reqs[3]};

    BatchComposition reused, fresh;
    composeBatch(big, 3, reused);
    composeBatch(small, 3, reused);
    composeBatch(small, 3, fresh);
    EXPECT_EQ(reused.full, fresh.full);
    EXPECT_EQ(reused.sb1, fresh.sb1);
    EXPECT_EQ(reused.sb2, fresh.sb2);
    EXPECT_EQ(requestCount(reused.sb1) + requestCount(reused.sb2), 3);
}

TEST(ComposeBatchDeathTest, UnassignedRequestPanics)
{
    auto reqs = makeRequests({1});
    BatchComposition comp;
    EXPECT_DEATH(composeBatch(pointers(reqs), 2, comp), "no channel");
}

/** Property: partition preserves every request exactly once, keeps
 * totals within one and splits each channel's list into a front and
 * a back half (sb1 ++ sb2 == full). */
class SubBatchProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SubBatchProperty, PartitionIsExact)
{
    Rng rng(GetParam());
    const int channels = 8;
    std::vector<Request> reqs;
    int n = static_cast<int>(rng.uniformInt(1, 200));
    for (int i = 0; i < n; ++i) {
        Request r;
        r.id = i;
        r.inputLength = 1 + static_cast<int>(rng.uniformInt(0, 999));
        r.channel = static_cast<ChannelId>(
            rng.uniformInt(0, channels - 1));
        reqs.push_back(r);
    }
    BatchComposition comp;
    composeBatch(pointers(reqs), channels, comp);
    EXPECT_EQ(requestCount(comp.sb1) + requestCount(comp.sb2), n);
    EXPECT_LE(std::abs(requestCount(comp.sb1) - requestCount(comp.sb2)),
              1);
    for (int ch = 0; ch < channels; ++ch) {
        // Per channel: the two halves differ by at most one ...
        int d = static_cast<int>(comp.sb1[ch].size()) -
                static_cast<int>(comp.sb2[ch].size());
        EXPECT_LE(std::abs(d), 1);
        // ... and concatenate to the channel's list, which is what
        // lets the engine-run cache key on the full lists alone.
        std::vector<int> joined = comp.sb1[ch];
        joined.insert(joined.end(), comp.sb2[ch].begin(),
                      comp.sb2[ch].end());
        EXPECT_EQ(joined, comp.full[ch]) << "channel " << ch;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubBatchProperty,
                         ::testing::Values(7u, 8u, 9u, 10u));

} // namespace
} // namespace neupims::runtime
