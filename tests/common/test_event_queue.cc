/**
 * @file
 * Unit tests for the discrete-event simulation kernel.
 */

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "common/event_queue.h"
#include "common/heap_event_queue.h"
#include "common/rng.h"

namespace neupims {
namespace {

TEST(EventQueue, StartsAtCycleZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.size(), 0u);
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameCycleEventsRunInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbacksMayScheduleNewEvents)
{
    EventQueue eq;
    int hits = 0;
    std::function<void()> chain = [&] {
        ++hits;
        if (hits < 5)
            eq.scheduleIn(7, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(hits, 5);
    EXPECT_EQ(eq.now(), 28u);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [&] {
        EXPECT_DEATH(eq.schedule(5, [] {}), "assertion");
    });
    eq.run();
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 10; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.executedEvents(), 10u);
}

TEST(EventQueue, NextEventCycleReportsEarliest)
{
    EventQueue eq;
    eq.schedule(42, [] {});
    eq.schedule(7, [] {});
    EXPECT_EQ(eq.nextEventCycle(), 7u);
}

TEST(EventQueue, EventsBeyondTheWheelWindowStillOrder)
{
    // Schedules far enough apart to force the overflow heap and
    // several window rebase sweeps.
    EventQueue eq;
    std::vector<Cycle> order;
    for (Cycle c : {1'000'000u, 5u, 250'000u, 9'000u, 250'000u})
        eq.schedule(c, [&order, c] { order.push_back(c); });
    eq.run();
    EXPECT_EQ(order, (std::vector<Cycle>{5, 9'000, 250'000, 250'000,
                                         1'000'000}));
    EXPECT_EQ(eq.now(), 1'000'000u);
}

TEST(EventQueue, CallbackChainsAcrossWindows)
{
    EventQueue eq;
    int hops = 0;
    std::function<void()> hop = [&] {
        if (++hops < 64)
            eq.scheduleIn(10'000, hop); // > wheel span per hop
    };
    eq.schedule(0, hop);
    eq.run();
    EXPECT_EQ(hops, 64);
    EXPECT_EQ(eq.now(), 63u * 10'000u);
}

/**
 * Differential test: the calendar queue must execute a randomized
 * workload — mixed near/far schedules, same-cycle bursts and
 * callback-driven reschedules — in exactly the (cycle, sequence)
 * order of the reference heap implementation.
 */
TEST(EventQueue, MatchesHeapReferenceOnRandomWorkload)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        auto drive = [seed](auto &eq) {
            std::vector<std::pair<Cycle, int>> trace;
            Rng rng(seed);
            int id = 0;
            std::function<void(int)> chain = [&](int depth) {
                trace.emplace_back(eq.now(), id++);
                if (depth > 0) {
                    Cycle d = rng.uniformInt(0, 20'000);
                    eq.scheduleIn(d, [&chain, depth] {
                        chain(depth - 1);
                    });
                }
            };
            for (int i = 0; i < 200; ++i) {
                Cycle when = rng.uniformInt(0, 30'000);
                int depth = static_cast<int>(rng.uniformInt(0, 3));
                eq.schedule(when, [&chain, depth] { chain(depth); });
            }
            eq.run();
            return trace;
        };
        EventQueue bucketed;
        HeapEventQueue heap;
        EXPECT_EQ(drive(bucketed), drive(heap)) << "seed " << seed;
    }
}

/**
 * Large-scale differential test: 10k randomized events with
 * deliberately tie-heavy timestamps — most schedules collide on a
 * small set of cycles, which is exactly where bucket draining,
 * mid-drain appends and (cycle, sequence) tie-breaking can diverge
 * from the reference heap. Mixes direct schedules, callback-driven
 * reschedules (both same-cycle and far jumps across the wheel
 * windows) and slice-boundary events that inject work at their own
 * cycle, behind everything already due there, and requires
 * bit-identical execution traces.
 */
TEST(EventQueue, MatchesHeapReferenceOnTieHeavyWorkload)
{
    for (std::uint64_t seed = 11; seed <= 13; ++seed) {
        auto drive = [seed](auto &eq) {
            // Each traced event is labelled in schedule order, so the
            // trace shows the order of same-cycle events too.
            std::vector<std::pair<Cycle, int>> trace;
            Rng rng(seed);
            int next = 0;
            // Tie-heavy: all direct schedules land on one of a few
            // hot cycles within each coarse epoch.
            auto hot_cycle = [&rng](Cycle epoch) {
                return epoch * 5'000 + rng.uniformInt(0, 7) * 16;
            };
            std::function<void(int, int)> chain = [&](int label,
                                                      int depth) {
                trace.emplace_back(eq.now(), label);
                if (depth > 0) {
                    // Half the reschedules collide on the current
                    // cycle; the rest hop ahead, some past the
                    // level-0 window.
                    Cycle d = rng.uniform() < 0.5
                                  ? 0
                                  : rng.uniformInt(1, 3) * 4'096;
                    eq.scheduleIn(d, [&chain, l = next++, depth] {
                        chain(l, depth - 1);
                    });
                }
            };
            for (int i = 0; i < 10'000; ++i) {
                Cycle when = hot_cycle(rng.uniformInt(0, 40));
                int depth = static_cast<int>(rng.uniformInt(0, 2));
                eq.schedule(when, [&chain, l = next++, depth] {
                    chain(l, depth);
                });
            }
            // Every 17,000 cycles, up to the last hot cycle and its
            // longest hops, a boundary event injects a chain at its
            // own cycle from inside the drain.
            std::function<void()> boundary = [&] {
                eq.scheduleIn(0, [&chain, l = next++] { chain(l, 0); });
                if (eq.now() < 220'000)
                    eq.scheduleIn(17'000, boundary);
            };
            eq.schedule(17'000, boundary);
            eq.run();
            return trace;
        };
        EventQueue bucketed;
        HeapEventQueue heap;
        auto tb = drive(bucketed);
        auto th = drive(heap);
        ASSERT_GT(tb.size(), 10'000u);
        EXPECT_EQ(tb, th) << "seed " << seed;
    }
}

} // namespace
} // namespace neupims
