/**
 * @file
 * Unit tests for the request pool: lifecycle, admission, requeue,
 * retirement.
 */

#include <gtest/gtest.h>

#include "runtime/request_pool.h"

namespace neupims::runtime {
namespace {

/** Admit the waiting-queue head. @return its id. */
RequestId
admitHead(RequestPool &pool)
{
    RequestId id = pool.waitingHead();
    pool.admitId(id);
    return id;
}

/** Admit the waiting-queue head and run its whole prompt through
 * prefill, so it decodes from the next iteration. @return its id. */
RequestId
admitDecoding(RequestPool &pool)
{
    RequestId id = admitHead(pool);
    Request &req = pool.request(id);
    req.advancePrefill(req.inputLength);
    return id;
}

/** One decode iteration over the whole running batch. */
std::vector<RequestId>
decodeAll(RequestPool &pool)
{
    return pool.advanceRequests(pool.runningRequests());
}

TEST(Request, LifecycleAdvancesThroughPhases)
{
    Request r;
    r.inputLength = 10;
    r.outputLength = 2;
    EXPECT_EQ(r.currentSeqLen(), 10);

    // Prefill phase: the prompt is processed in chunks before any
    // token can be generated.
    r.beginPrefill();
    EXPECT_TRUE(r.prefilling());
    EXPECT_EQ(r.remainingPrefill(), 10);
    r.advancePrefill(6);
    EXPECT_TRUE(r.prefilling());
    EXPECT_EQ(r.remainingPrefill(), 4);
    r.advancePrefill(4);
    EXPECT_TRUE(r.decoding());

    r.advance();
    EXPECT_EQ(r.currentSeqLen(), 11);
    EXPECT_FALSE(r.finished());
    r.advance();
    EXPECT_TRUE(r.finished());
    EXPECT_EQ(r.status, RequestStatus::Done);
}

TEST(RequestDeathTest, DecodeBeforePrefillCompletesPanics)
{
    Request r;
    r.inputLength = 10;
    r.outputLength = 1;
    r.beginPrefill();
    r.advancePrefill(3);
    EXPECT_DEATH(r.advance(), "before prefill");
}

TEST(RequestDeathTest, PrefillOverrunPanics)
{
    Request r;
    r.inputLength = 4;
    r.beginPrefill();
    EXPECT_DEATH(r.advancePrefill(5), "overrun");
}

TEST(RequestPool, SubmitQueuesWaiting)
{
    RequestPool pool;
    auto id = pool.submit(10, 5);
    EXPECT_EQ(pool.waitingCount(), 1u);
    EXPECT_EQ(pool.runningCount(), 0u);
    EXPECT_EQ(pool.request(id).status, RequestStatus::Waiting);
}

TEST(RequestPool, AdmitMovesFifoOrder)
{
    RequestPool pool;
    auto a = pool.submit(1, 1);
    auto b = pool.submit(2, 1);
    pool.submit(3, 1);
    EXPECT_EQ(admitHead(pool), a);
    EXPECT_EQ(admitHead(pool), b);
    EXPECT_EQ(pool.waitingCount(), 1u);
    ASSERT_EQ(pool.runningCount(), 2u);
    auto running = pool.runningRequests();
    EXPECT_EQ(running[0]->id, a);
    EXPECT_EQ(running[1]->id, b);
    // Admission enters the prefill phase with the cursor at 0.
    EXPECT_TRUE(running[0]->prefilling());
    EXPECT_EQ(running[0]->prefilledTokens, 0);
}

TEST(RequestPool, AdmitIsBoundedByWaiting)
{
    RequestPool pool;
    auto id = pool.submit(1, 1);
    pool.admitId(id);
    EXPECT_EQ(pool.waitingCount(), 0u);
    EXPECT_TRUE(pool.waitingIds().empty());
    // Only a waiting request can be admitted.
    EXPECT_DEATH(pool.admitId(id), "not waiting");
}

TEST(RequestPool, CompleteIterationRetiresFinished)
{
    RequestPool pool;
    pool.submit(5, 1); // finishes after one iteration
    pool.submit(5, 3);
    admitDecoding(pool);
    admitDecoding(pool);
    auto retired = decodeAll(pool);
    ASSERT_EQ(retired.size(), 1u);
    EXPECT_EQ(pool.runningCount(), 1u);
    EXPECT_EQ(pool.completedCount(), 1u);
    EXPECT_EQ(pool.totalGeneratedTokens(), 2u);
}

TEST(RequestPool, RequeuePutsRequestAtFront)
{
    RequestPool pool;
    auto a = pool.submit(1, 1);
    pool.submit(2, 1);
    admitHead(pool);
    pool.requeue(a);
    EXPECT_EQ(pool.runningCount(), 0u);
    EXPECT_EQ(pool.waitingCount(), 2u);
    // Next admission re-admits the requeued request first.
    EXPECT_EQ(admitHead(pool), a);
}

TEST(RequestPool, RunningRequestsExposeMutableState)
{
    RequestPool pool;
    auto id = pool.submit(10, 5);
    admitHead(pool);
    auto reqs = pool.runningRequests();
    ASSERT_EQ(reqs.size(), 1u);
    reqs[0]->channel = 7;
    EXPECT_EQ(pool.request(id).channel, 7);
}

/** Schedules hold Request pointers while the serving engine submits a
 * shed victim's retry mid-iteration: submitting must never move a
 * stored request. */
TEST(RequestPool, SubmitKeepsEveryRequestAddress)
{
    RequestPool pool;
    auto id = pool.submit(10, 5);
    admitHead(pool);
    const Request *first = &pool.request(id);
    const Request *running = pool.runningRequests()[0];
    for (int i = 0; i < 300; ++i)
        pool.submitAt(static_cast<Cycle>(1000 + i), 8, 4);
    EXPECT_EQ(&pool.request(id), first);
    EXPECT_EQ(running, first);
    EXPECT_EQ(running->inputLength, 10);
}

TEST(RequestPoolDeathTest, RequeueNonRunningPanics)
{
    RequestPool pool;
    auto id = pool.submit(1, 1);
    EXPECT_DEATH(pool.requeue(id), "not running");
}

TEST(RequestPoolDeathTest, InvalidIdPanics)
{
    RequestPool pool;
    EXPECT_DEATH((void)pool.request(42), "assertion");
}

TEST(RequestPool, ManyIterationsDrainEverything)
{
    RequestPool pool;
    for (int i = 0; i < 20; ++i)
        pool.submit(1 + i, 1 + i % 5);
    while (pool.waitingCount() > 0)
        admitDecoding(pool);
    int guard = 0;
    while (pool.runningCount() > 0 && guard++ < 100)
        decodeAll(pool);
    EXPECT_EQ(pool.completedCount(), 20u);
}

// Every terminal path — completion, drop, timeout, shed — lands a
// request in exactly one terminal bucket, and the census balances at
// every step along the way.
TEST(RequestPool, ConservationHoldsAcrossEveryTerminalPath)
{
    RequestPool pool;
    auto done = pool.submit(2, 1);
    auto dropped = pool.submit(3, 1);
    auto timed_out = pool.submit(4, 1);
    auto shed = pool.submit(5, 1);
    auto preempted = pool.submit(6, 4);
    EXPECT_TRUE(pool.conservationHolds());

    // Timeout from the waiting queue; shed from the waiting queue.
    pool.abandon(timed_out, RequestStatus::TimedOut);
    EXPECT_TRUE(pool.conservationHolds());
    pool.abandon(shed, RequestStatus::Shed);
    EXPECT_TRUE(pool.conservationHolds());

    // Drop a waiting request (never fits any channel).
    pool.dropWaiting(dropped);
    EXPECT_TRUE(pool.conservationHolds());

    // Run the rest; time one out from the preempted queue mid-way.
    admitDecoding(pool);
    admitDecoding(pool);
    decodeAll(pool); // retires `done` (1 output token)
    EXPECT_TRUE(pool.conservationHolds());
    pool.preempt(preempted, /*recompute=*/true);
    EXPECT_TRUE(pool.conservationHolds());
    pool.abandon(preempted, RequestStatus::TimedOut);
    EXPECT_TRUE(pool.conservationHolds());

    EXPECT_EQ(pool.completedCount(), 1u);
    EXPECT_EQ(pool.droppedCount(), 1u);
    EXPECT_EQ(pool.timedOutCount(), 2u);
    EXPECT_EQ(pool.shedCount(), 1u);
    EXPECT_EQ(pool.waitingCount(), 0u);
    EXPECT_EQ(pool.runningCount(), 0u);
    EXPECT_EQ(pool.preemptedCount(), 0u);
    EXPECT_EQ(pool.request(done).status, RequestStatus::Done);
    EXPECT_EQ(pool.request(dropped).status, RequestStatus::Dropped);
    EXPECT_EQ(pool.request(timed_out).status,
              RequestStatus::TimedOut);
    EXPECT_EQ(pool.request(shed).status, RequestStatus::Shed);
}

// A running request can be abandoned too (the engine aborts mid-flight
// at the client deadline and frees its KV), and its partial progress
// stays frozen on the frozen record.
TEST(RequestPool, AbandonFromRunningFreezesProgress)
{
    RequestPool pool;
    auto id = pool.submit(2, 5);
    admitDecoding(pool);
    decodeAll(pool);
    decodeAll(pool);
    EXPECT_EQ(pool.request(id).generatedTokens, 2);
    pool.abandon(id, RequestStatus::TimedOut);
    EXPECT_TRUE(pool.conservationHolds());
    EXPECT_EQ(pool.runningCount(), 0u);
    EXPECT_EQ(pool.request(id).generatedTokens, 2);
    EXPECT_EQ(pool.request(id).status, RequestStatus::TimedOut);
}

TEST(RequestPoolDeathTest, DoubleTerminalPanics)
{
    RequestPool pool;
    auto id = pool.submit(1, 1);
    pool.abandon(id, RequestStatus::Shed);
    // Second terminal transition must die: terminal states are
    // mutually exclusive, whatever the order.
    EXPECT_DEATH(pool.abandon(id, RequestStatus::TimedOut),
                 "not live");
}

TEST(RequestPoolDeathTest, AbandonRejectsNonAbandonTerminals)
{
    RequestPool pool;
    auto id = pool.submit(1, 1);
    EXPECT_DEATH(pool.abandon(id, RequestStatus::Done),
                 "only timed-out/shed");
}

} // namespace
} // namespace neupims::runtime
