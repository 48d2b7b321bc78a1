/**
 * @file
 * Integration tests of the Orca-style iteration-level scheduler:
 * admission under KV pressure, channel assignment policies, the
 * Algorithm-3 split of the batches it schedules and retirement.
 * Admission enters the prefill phase, so a request placed at one
 * boundary joins the decode batch only after its prompt pass (the
 * default 256-token chunk covers every prompt here in one
 * iteration).
 */

#include <gtest/gtest.h>

#include "core/batch_builder.h"
#include "runtime/batch_scheduler.h"

namespace neupims::runtime {
namespace {

using core::requestCount;

class BatchSchedulerTest : public ::testing::Test
{
  protected:
    KvCacheConfig
    kvConfig(int pages_per_channel)
    {
        KvCacheConfig cfg;
        cfg.channels = 4;
        cfg.tokensPerPage = 16;
        cfg.bytesPerTokenPerLayer = 1024;
        cfg.layers = 1;
        cfg.bytesPerChannel =
            cfg.pageBytes() * static_cast<Bytes>(pages_per_channel);
        return cfg;
    }

    SchedulerConfig
    schedConfig(bool min_load)
    {
        SchedulerConfig cfg;
        cfg.channels = 4;
        cfg.maxBatch = 16;
        cfg.minLoadPacking = min_load;
        return cfg;
    }

    /** Run one admission boundary, whose iteration prefills every
     * admitted prompt, and return the next boundary's schedule: the
     * admitted requests decode there. */
    IterationSchedule
    admitAndPrefill(BatchScheduler &sched)
    {
        auto first = sched.scheduleIteration();
        EXPECT_TRUE(first.batch.empty());
        EXPECT_EQ(static_cast<int>(first.prefill.size()),
                  first.admitted);
        sched.completeIteration(first);
        return sched.scheduleIteration();
    }
};

TEST_F(BatchSchedulerTest, AdmitsUpToMaxBatch)
{
    RequestPool pool;
    PagedKvCache kv(kvConfig(1000));
    BatchScheduler sched(schedConfig(true), pool, kv);
    for (int i = 0; i < 32; ++i)
        pool.submit(10, 5);
    auto it = sched.scheduleIteration();
    EXPECT_EQ(it.admitted, 16);
    EXPECT_EQ(pool.runningCount(), 16u);
    EXPECT_EQ(pool.waitingCount(), 16u);
    // All 16 prompts fit one chunk; the next boundary decodes all of
    // them and admits nobody (the batch is full).
    sched.completeIteration(it);
    auto it2 = sched.scheduleIteration();
    EXPECT_EQ(it2.batchSize(), 16);
    EXPECT_EQ(it2.admitted, 0);
    EXPECT_EQ(pool.waitingCount(), 16u);
}

TEST_F(BatchSchedulerTest, EveryAdmittedRequestHasChannelAndKv)
{
    RequestPool pool;
    PagedKvCache kv(kvConfig(1000));
    BatchScheduler sched(schedConfig(true), pool, kv);
    for (int i = 0; i < 8; ++i)
        pool.submit(10 + i, 5);
    auto it = sched.scheduleIteration();
    ASSERT_EQ(it.admitted, 8);
    for (const Request *req : pool.runningRequests()) {
        EXPECT_GE(req->channel, 0);
        EXPECT_LT(req->channel, 4);
        EXPECT_EQ(kv.channelOf(req->id), req->channel);
        EXPECT_EQ(kv.tokensOf(req->id), req->currentSeqLen());
    }
}

TEST_F(BatchSchedulerTest, KvPressureStopsAdmission)
{
    RequestPool pool;
    PagedKvCache kv(kvConfig(2)); // 2 pages x 4 channels = 128 tokens
    BatchScheduler sched(schedConfig(true), pool, kv);
    for (int i = 0; i < 16; ++i)
        pool.submit(32, 5); // 2 pages each: one request per channel
    auto it = sched.scheduleIteration();
    EXPECT_EQ(it.admitted, 4);
    EXPECT_EQ(pool.runningCount(), 4u);
    EXPECT_EQ(pool.waitingCount(), 12u);
}

TEST_F(BatchSchedulerTest, DecodePastKvCapacityIsFatalWithoutPreemption)
{
    // Without preemption, a decode token that finds no free page
    // would be priced as cached on a device that cannot hold it.
    RequestPool pool;
    PagedKvCache kv(kvConfig(2));
    BatchScheduler sched(schedConfig(true), pool, kv);
    for (int i = 0; i < 4; ++i)
        pool.submit(32, 5); // each prompt fills its channel's 2 pages
    auto it = admitAndPrefill(sched);
    ASSERT_EQ(it.batchSize(), 4);
    EXPECT_EXIT(sched.completeIteration(it), ::testing::ExitedWithCode(1),
                "out of pages.*--preempt recompute");
}

TEST_F(BatchSchedulerTest, SubBatchesCoverBatch)
{
    RequestPool pool;
    PagedKvCache kv(kvConfig(1000));
    BatchScheduler sched(schedConfig(true), pool, kv);
    for (int i = 0; i < 11; ++i)
        pool.submit(10, 5);
    auto it = admitAndPrefill(sched);
    ASSERT_EQ(it.batchSize(), 11);
    core::BatchComposition comp;
    core::composeBatch(it.batch, 4, comp);
    EXPECT_EQ(requestCount(comp.sb1) + requestCount(comp.sb2),
              it.batchSize());
    EXPECT_LE(std::abs(requestCount(comp.sb1) - requestCount(comp.sb2)),
              1);
}

TEST_F(BatchSchedulerTest, CompleteIterationGrowsKvAndRetires)
{
    RequestPool pool;
    PagedKvCache kv(kvConfig(1000));
    BatchScheduler sched(schedConfig(true), pool, kv);
    pool.submit(15, 1); // will retire after one decode iteration
    pool.submit(15, 3);
    auto it = admitAndPrefill(sched);
    ASSERT_EQ(it.batchSize(), 2);
    RequestId retiring = it.batch[0]->id;
    // The prompt pass reserved no pages beyond the prompt.
    EXPECT_EQ(kv.tokensOf(retiring), 15);
    int retired = sched.completeIteration(it);
    EXPECT_EQ(retired, 1);
    // Retired request released its pages.
    EXPECT_EQ(kv.channelOf(retiring), kInvalidId);
    // Survivor grew by one token.
    auto it2 = sched.scheduleIteration();
    ASSERT_EQ(it2.batchSize(), 1);
    EXPECT_EQ(kv.tokensOf(it2.batch[0]->id), 16);
}

TEST_F(BatchSchedulerTest, MinLoadBalancesSkewedArrivals)
{
    RequestPool pool;
    PagedKvCache kv(kvConfig(1000));
    BatchScheduler sched(schedConfig(true), pool, kv);
    // One giant and several small requests.
    pool.submit(1000, 5);
    for (int i = 0; i < 7; ++i)
        pool.submit(10, 5);
    auto it = sched.scheduleIteration();
    ASSERT_EQ(it.admitted, 8);
    // Channels are placed at admission, before any prompt pass. The
    // giant's channel should not also host small ones... find it.
    auto running = pool.runningRequests();
    ChannelId giant_ch = -1;
    for (const Request *r : running) {
        if (r->inputLength == 1000)
            giant_ch = r->channel;
    }
    ASSERT_NE(giant_ch, kInvalidId);
    int on_giant = 0;
    for (const Request *r : running)
        on_giant += (r->channel == giant_ch);
    EXPECT_EQ(on_giant, 1);
    EXPECT_LT(loadImbalance(it.channelLoads), 4.0);
}

TEST_F(BatchSchedulerTest, RoundRobinCyclesChannels)
{
    RequestPool pool;
    PagedKvCache kv(kvConfig(1000));
    BatchScheduler sched(schedConfig(false), pool, kv);
    for (int i = 0; i < 8; ++i)
        pool.submit(10, 5);
    auto it = sched.scheduleIteration();
    ASSERT_EQ(it.admitted, 8);
    std::vector<int> counts(4, 0);
    for (const Request *r : pool.runningRequests())
        ++counts[r->channel];
    for (int c : counts)
        EXPECT_EQ(c, 2);
}

TEST_F(BatchSchedulerTest, SeqLensMatchRequests)
{
    RequestPool pool;
    PagedKvCache kv(kvConfig(1000));
    BatchScheduler sched(schedConfig(true), pool, kv);
    pool.submit(25, 5);
    pool.submit(35, 5);
    auto it = admitAndPrefill(sched);
    core::BatchComposition comp;
    core::composeBatch(it.batch, 4, comp);
    int total = 0;
    for (const auto &ch : comp.full)
        for (int l : ch) {
            EXPECT_TRUE(l == 25 || l == 35);
            ++total;
        }
    EXPECT_EQ(total, 2);
}

TEST_F(BatchSchedulerTest, StreamingServesEverythingEventually)
{
    RequestPool pool;
    PagedKvCache kv(kvConfig(64));
    BatchScheduler sched(schedConfig(true), pool, kv);
    for (int i = 0; i < 40; ++i)
        pool.submit(5 + i % 17, 1 + i % 7);
    int iterations = 0;
    while (pool.completedCount() < 40 && iterations < 500) {
        auto schedule = sched.scheduleIteration();
        sched.completeIteration(schedule);
        ++iterations;
    }
    EXPECT_EQ(pool.completedCount(), 40u);
    // All KV pages returned.
    for (ChannelId ch = 0; ch < 4; ++ch)
        EXPECT_EQ(kv.usedPages(ch), 0);
}

} // namespace
} // namespace neupims::runtime
