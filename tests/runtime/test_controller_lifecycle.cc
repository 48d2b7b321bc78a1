/**
 * @file
 * Locks the committed-schedule lifetime invariant documented in
 * dram/controller.h: a controller's committed (horizon-ahead) command
 * schedule lives exactly as long as the controller object, the
 * executor rebuilds every controller per runIteration() call, and the
 * serving layer's channel-failure path (PagedKvCache::failChannel)
 * is capacity-only — so an in-flight committed schedule can never be
 * replayed onto a failed channel.
 */

#include <gtest/gtest.h>

#include "core/batch_builder.h"
#include "core/executor.h"
#include "core/serving_setup.h"
#include "runtime/kv_cache.h"

namespace neupims {
namespace {

/** Repeated runIteration() calls on one executor are bit-identical:
 * no committed schedule, queue state or bank state survives from one
 * call into the next (controllers are rebuilt per call). */
TEST(ControllerLifecycle, RepeatedIterationsBitIdentical)
{
    auto llm = model::gpt3_13b();
    auto dev = core::DeviceConfig::neuPims();
    core::DeviceExecutor exec(dev, llm, llm.defaultTp, 3);
    auto comp = core::uniformComposition(128, 512, dev.org.channels);

    auto r0 = exec.runIteration(comp, 3, 1);
    auto r1 = exec.runIteration(comp, 3, 1);
    EXPECT_EQ(r0.perLayerCycles, r1.perLayerCycles);
    EXPECT_EQ(r0.iterationCycles, r1.iterationCycles);
    EXPECT_EQ(r0.dataBusBytes, r1.dataBusBytes);
    EXPECT_EQ(r0.memSched.memCommands, r1.memSched.memCommands);
    EXPECT_EQ(r0.memSched.pimCommands, r1.memSched.pimCommands);
}

/** An intervening iteration with a different composition leaves no
 * residue: the third run reproduces the first exactly, even though
 * the middle run committed a completely different schedule. */
TEST(ControllerLifecycle, NoScheduleResidueAcrossCompositions)
{
    auto llm = model::gpt3_13b();
    auto dev = core::DeviceConfig::neuPims();
    core::DeviceExecutor exec(dev, llm, llm.defaultTp, 3);
    auto big = core::uniformComposition(256, 1024, dev.org.channels);
    auto small = core::uniformComposition(32, 256, dev.org.channels);

    auto first = exec.runIteration(big, 3, 1);
    (void)exec.runIteration(small, 3, 1);
    auto third = exec.runIteration(big, 3, 1);
    EXPECT_EQ(first.perLayerCycles, third.perLayerCycles);
    EXPECT_EQ(first.iterationCycles, third.iterationCycles);
    EXPECT_EQ(first.dataBusBytes, third.dataBusBytes);
}

/** In-flight extra traffic (KV swap-out and swap-in streams — the
 * failure-window case) is also iteration-scoped: an iteration
 * carrying ExtraMemTraffic perturbs nothing about the next plain
 * iteration. */
TEST(ControllerLifecycle, ExtraTrafficDoesNotLeakIntoNextIteration)
{
    auto llm = model::gpt3_13b();
    auto dev = core::DeviceConfig::neuPims();
    core::DeviceExecutor exec(dev, llm, llm.defaultTp, 3);
    auto comp = core::uniformComposition(128, 512, dev.org.channels);

    auto plain = exec.runIteration(comp, 3, 1);

    core::ExtraMemTraffic extra;
    extra.swapOutBytes = 64_MiB;
    extra.swapInBytes = 32_MiB;
    auto loaded = exec.runIteration(comp, extra, 3, 1);
    EXPECT_GT(loaded.extraTrafficEndCycle, 0u);

    auto after = exec.runIteration(comp, 3, 1);
    EXPECT_EQ(plain.perLayerCycles, after.perLayerCycles);
    EXPECT_EQ(plain.iterationCycles, after.iterationCycles);
    EXPECT_EQ(after.extraTrafficEndCycle, 0u);
}

/** The serving failure path is capacity-only: failChannel() touches
 * page accounting (no controller exists to carry a schedule across
 * it), survivors keep their pages, and the failed channel's capacity
 * leaves the denominator for good. */
TEST(ControllerLifecycle, FailChannelIsCapacityOnly)
{
    runtime::KvCacheConfig cfg;
    cfg.channels = 4;
    cfg.bytesPerChannel = 1_MiB;
    cfg.bytesPerTokenPerLayer = 256;
    cfg.layers = 4;
    runtime::PagedKvCache kv(cfg);

    ASSERT_TRUE(kv.allocateSequence(1, 0, 64));
    ASSERT_TRUE(kv.allocateSequence(2, 2, 128));
    auto survivor_pages = kv.pagesOf(2);
    auto total = kv.liveCapacityPages();

    // Channel 1 is empty; failing it must not disturb residents.
    auto lost = kv.failChannel(1);
    EXPECT_EQ(lost, cfg.pagesPerChannel());
    EXPECT_EQ(kv.liveChannels(), 3);
    EXPECT_EQ(kv.liveCapacityPages(), total - lost);
    EXPECT_EQ(kv.pagesOf(2), survivor_pages);
    EXPECT_FALSE(kv.channelOnline(1));
    EXPECT_FALSE(kv.canAllocate(1, 16));

    // Residents on live channels still grow normally afterwards.
    EXPECT_TRUE(kv.appendTokens(2, 32));
}

/** Measured pricing immediately after a failure-shaped workload
 * change stays self-consistent: pricing the shrunken composition is
 * independent of whether a larger one was priced before (fresh
 * controllers per call — nothing to replay onto the "failed"
 * channel's traffic). */
TEST(ControllerLifecycle, ShrunkenCompositionPricedIndependently)
{
    auto llm = model::gpt3_13b();
    auto dev = core::DeviceConfig::neuPims();
    auto full = core::uniformComposition(128, 512, dev.org.channels);
    // Post-failure shape: one channel carries nothing.
    auto degraded = full;
    degraded.full[0].clear();
    degraded.sb1[0].clear();
    degraded.sb2[0].clear();

    core::DeviceExecutor fresh(dev, llm, llm.defaultTp, 3);
    auto direct = fresh.runIteration(degraded, 3, 1);

    core::DeviceExecutor reused(dev, llm, llm.defaultTp, 3);
    (void)reused.runIteration(full, 3, 1);
    auto after_full = reused.runIteration(degraded, 3, 1);

    EXPECT_EQ(direct.perLayerCycles, after_full.perLayerCycles);
    EXPECT_EQ(direct.iterationCycles, after_full.iterationCycles);
    EXPECT_EQ(direct.dataBusBytes, after_full.dataBusBytes);
}

} // namespace
} // namespace neupims
