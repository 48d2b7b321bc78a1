/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include "common/stats.h"

namespace neupims {
namespace {

TEST(Scalar, AccumulatesAndCounts)
{
    Scalar s;
    s.add(2.5);
    s.add(1.5);
    EXPECT_DOUBLE_EQ(s.value(), 4.0);
    EXPECT_EQ(s.samples(), 2u);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(UtilizationTracker, DisjointIntervalsSum)
{
    UtilizationTracker u;
    u.addBusy(0, 10);
    u.addBusy(20, 30);
    EXPECT_EQ(u.busyCycles(), 20u);
    EXPECT_DOUBLE_EQ(u.utilization(0, 40), 0.5);
}

TEST(UtilizationTracker, OverlappingIntervalsMerge)
{
    UtilizationTracker u;
    u.addBusy(0, 10);
    u.addBusy(5, 15);
    u.addBusy(14, 20);
    EXPECT_EQ(u.busyCycles(), 20u);
}

TEST(UtilizationTracker, WindowClipsIntervals)
{
    UtilizationTracker u;
    u.addBusy(0, 100);
    EXPECT_DOUBLE_EQ(u.utilization(50, 150), 0.5);
    EXPECT_EQ(u.busyCycles(60), 60u);
}

TEST(UtilizationTracker, EmptyIntervalIgnored)
{
    UtilizationTracker u;
    u.addBusy(10, 10);
    u.addBusy(10, 9); // degenerate, ignored
    EXPECT_EQ(u.busyCycles(), 0u);
}

TEST(UtilizationTracker, InterleavedAddAndQuery)
{
    UtilizationTracker u;
    u.addBusy(0, 5);
    EXPECT_EQ(u.busyCycles(), 5u);
    u.addBusy(3, 8); // merge after a query has sorted
    EXPECT_EQ(u.busyCycles(), 8u);
}

} // namespace
} // namespace neupims
