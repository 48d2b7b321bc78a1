/**
 * @file
 * Property-based tests of the phase-aware request lifecycle under
 * randomized chunked-prefill workloads (deterministic seeds): a
 * request never decodes before its prefill cursor reaches its prompt
 * length, per-iteration prefill tokens never exceed the chunk budget,
 * prefill slices are well-formed continuations of each request's
 * cursor, and the total prefilled tokens across a drained run equal
 * the sum of the admitted prompt lengths.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>

#include "common/rng.h"
#include "runtime/batch_scheduler.h"

namespace neupims::runtime {
namespace {

struct TrialConfig
{
    int channels;
    int pagesPerChannel;
    int maxBatch;
    int iterations;
    int maxArrivalsPerIteration;
    int chunkTokens;
    bool piggyback;
};

KvCacheConfig
kvConfigFor(const TrialConfig &t)
{
    KvCacheConfig kv;
    kv.channels = t.channels;
    kv.tokensPerPage = 16;
    kv.bytesPerTokenPerLayer = 1024;
    kv.layers = 1;
    kv.bytesPerChannel =
        kv.pageBytes() * static_cast<Bytes>(t.pagesPerChannel);
    return kv;
}

SchedulerConfig
schedConfigFor(const TrialConfig &t)
{
    SchedulerConfig cfg;
    cfg.channels = t.channels;
    cfg.maxBatch = t.maxBatch;
    cfg.minLoadPacking = true;
    cfg.prefill.chunkTokens = t.chunkTokens;
    cfg.prefill.piggyback = t.piggyback;
    return cfg;
}

TrialConfig
randomTrial(Rng &rng)
{
    TrialConfig t;
    t.channels = static_cast<int>(rng.uniformInt(2, 8));
    t.pagesPerChannel = static_cast<int>(rng.uniformInt(16, 128));
    t.maxBatch = static_cast<int>(rng.uniformInt(8, 48));
    t.iterations = static_cast<int>(rng.uniformInt(30, 80));
    t.maxArrivalsPerIteration = static_cast<int>(rng.uniformInt(1, 5));
    t.chunkTokens = static_cast<int>(rng.uniformInt(8, 192));
    t.piggyback = rng.uniformInt(0, 1) == 1;
    return t;
}

/**
 * Submit 0..max arrivals; lengths bounded so every request fits.
 * Without preemption KV capacity is a hard limit, so each prompt ends
 * early enough in its last page for the output to fit there: decode
 * never needs a page beyond those admission reserved, while prompts
 * still fill the cache and stall admission.
 */
void
submitArrivals(Rng &rng, const TrialConfig &t, RequestPool &pool)
{
    const auto max_pages = static_cast<std::uint64_t>(t.pagesPerChannel / 2);
    std::uint64_t n = rng.uniformInt(0, t.maxArrivalsPerIteration);
    for (std::uint64_t i = 0; i < n; ++i) {
        int pages = static_cast<int>(rng.uniformInt(1, max_pages));
        int output = static_cast<int>(rng.uniformInt(1, 12));
        int input = static_cast<int>(rng.uniformInt(
            static_cast<std::uint64_t>((pages - 1) * 16 + 1),
            static_cast<std::uint64_t>(pages * 16 - output)));
        pool.submit(input, output);
    }
}

TEST(PrefillProperties, ChunkedPrefillInvariantsHold)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed * 31 + 7);
        TrialConfig t = randomTrial(rng);
        RequestPool pool;
        PagedKvCache kv(kvConfigFor(t));
        BatchScheduler sched(schedConfigFor(t), pool, kv);

        std::uint64_t prefilled_total = 0;
        std::uint64_t submitted = 0;
        // Cursor shadow: what each request's prefilledTokens must be
        // at the next schedule, maintained from the slices alone.
        std::unordered_map<RequestId, int> cursor;

        auto check_schedule = [&](const IterationSchedule &schedule) {
            // Budget: per-iteration prefill tokens never exceed the
            // chunk budget.
            EXPECT_LE(schedule.prefillTokens(), t.chunkTokens)
                << "seed " << seed;

            // No request decodes before its cursor reaches its
            // prompt length, and decode participants are disjoint
            // from prefill slices.
            for (const Request *req : schedule.batch) {
                EXPECT_TRUE(req->decoding()) << "seed " << seed;
                EXPECT_EQ(req->prefilledTokens, req->inputLength)
                    << "request " << req->id << " decoded "
                    << "mid-prefill, seed " << seed;
            }
            for (const auto &slice : schedule.prefill) {
                ASSERT_NE(slice.req, nullptr);
                EXPECT_TRUE(slice.req->prefilling())
                    << "seed " << seed;
                EXPECT_GE(slice.tokens, 1);
                // Slices continue exactly where the cursor stands.
                EXPECT_EQ(slice.startToken,
                          slice.req->prefilledTokens)
                    << "seed " << seed;
                int expect =
                    cursor.count(slice.req->id)
                        ? cursor[slice.req->id]
                        : 0;
                EXPECT_EQ(slice.startToken, expect)
                    << "seed " << seed;
                EXPECT_LE(slice.startToken + slice.tokens,
                          slice.req->inputLength)
                    << "seed " << seed;
                cursor[slice.req->id] =
                    slice.startToken + slice.tokens;
                prefilled_total +=
                    static_cast<std::uint64_t>(slice.tokens);
                // Disjointness with the decode batch.
                for (const Request *req : schedule.batch)
                    EXPECT_NE(req, slice.req) << "seed " << seed;
            }
        };

        for (int it = 0; it < t.iterations; ++it) {
            std::uint64_t before = pool.pendingCount() +
                                   pool.waitingCount() +
                                   pool.runningCount() +
                                   pool.completedCount();
            submitArrivals(rng, t, pool);
            submitted += pool.pendingCount() + pool.waitingCount() +
                         pool.runningCount() + pool.completedCount() -
                         before;
            auto schedule = sched.scheduleIteration();
            check_schedule(schedule);
            sched.completeIteration(schedule);
        }

        // Drain: everything admitted must finish its prompt pass and
        // then decode to completion.
        int guard = 0;
        while ((pool.waitingCount() > 0 || pool.runningCount() > 0) &&
               guard++ < 20000) {
            auto schedule = sched.scheduleIteration();
            check_schedule(schedule);
            sched.completeIteration(schedule);
        }
        EXPECT_EQ(pool.completedCount(), submitted)
            << "seed " << seed << " failed to drain";

        // Conservation: total prefilled tokens across the run equal
        // the sum of the admitted (= all, once drained) prompts.
        std::uint64_t prompt_sum = 0;
        for (RequestId id = 0;
             id < static_cast<RequestId>(submitted); ++id) {
            const Request &req = pool.request(id);
            EXPECT_EQ(req.prefilledTokens, req.inputLength)
                << "seed " << seed;
            prompt_sum +=
                static_cast<std::uint64_t>(req.inputLength);
        }
        EXPECT_EQ(prefilled_total, prompt_sum) << "seed " << seed;
    }
}

/**
 * Whole-prompt policy: a request's entire prompt is a single slice,
 * regardless of size, and decode still never overlaps its prefill.
 */
TEST(PrefillProperties, WholePromptPrefillsInOneSlice)
{
    TrialConfig t{4, 64, 16, 40, 3, /*chunk: whole prompts*/ 0,
                  /*piggyback=*/true};
    SchedulerConfig cfg = schedConfigFor(t);

    Rng rng(99);
    RequestPool pool;
    PagedKvCache kv(kvConfigFor(t));
    BatchScheduler sched(cfg, pool, kv);

    std::uint64_t submitted = 0;
    for (int it = 0; it < t.iterations; ++it) {
        std::uint64_t before =
            pool.waitingCount() + pool.runningCount() +
            pool.completedCount();
        submitArrivals(rng, t, pool);
        submitted += pool.waitingCount() + pool.runningCount() +
                     pool.completedCount() - before;
        auto schedule = sched.scheduleIteration();
        for (const auto &slice : schedule.prefill) {
            EXPECT_EQ(slice.startToken, 0);
            EXPECT_EQ(slice.tokens, slice.req->inputLength);
        }
        sched.completeIteration(schedule);
    }
    int guard = 0;
    while ((pool.waitingCount() > 0 || pool.runningCount() > 0) &&
           guard++ < 20000) {
        auto schedule = sched.scheduleIteration();
        sched.completeIteration(schedule);
    }
    EXPECT_EQ(pool.completedCount(), submitted);
}

} // namespace
} // namespace neupims::runtime
