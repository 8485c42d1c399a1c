// Copyright 2026 The DOD Authors.
//
// Slot scheduling and the simulated-cluster model.

#include "mapreduce/cluster.h"

#include <gtest/gtest.h>

#include "common/stats.h"

namespace dod {
namespace {

TEST(ScheduleTest, SingleSlotSumsEverything) {
  EXPECT_DOUBLE_EQ(Makespan({1.0, 2.0, 3.0}, 1), 6.0);
}

TEST(ScheduleTest, EnoughSlotsMeansMaxTask) {
  EXPECT_DOUBLE_EQ(Makespan({1.0, 5.0, 2.0}, 3), 5.0);
  EXPECT_DOUBLE_EQ(Makespan({1.0, 5.0, 2.0}, 10), 5.0);
}

TEST(ScheduleTest, EmptyTaskListIsZero) {
  EXPECT_DOUBLE_EQ(Makespan({}, 4), 0.0);
}

TEST(ScheduleTest, GreedyInOrderAssignment) {
  // Tasks 4,3,2,1 on 2 slots, FIFO: slot0={4,1}, slot1={3,2} → makespan 5.
  EXPECT_DOUBLE_EQ(Makespan({4.0, 3.0, 2.0, 1.0}, 2), 5.0);
}

TEST(ScheduleTest, LoadsSumToTotal) {
  const std::vector<double> costs = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0};
  const std::vector<double> loads = ScheduleLoads(costs, 3);
  EXPECT_DOUBLE_EQ(Sum(loads), Sum(costs));
  EXPECT_EQ(loads.size(), 3u);
}

TEST(ScheduleTest, MakespanBounds) {
  // Any schedule's makespan lies in [total/slots, total] and >= max task.
  const std::vector<double> costs = {2.0, 8.0, 1.0, 1.0, 3.0, 5.0};
  const int slots = 3;
  const double makespan = Makespan(costs, slots);
  EXPECT_GE(makespan, Sum(costs) / slots);
  EXPECT_GE(makespan, Max(costs));
  EXPECT_LE(makespan, Sum(costs));
}

TEST(ScheduleTest, SingleSlotLoadsEqualSerialSum) {
  const std::vector<double> loads = ScheduleLoads({1.0, 2.0, 3.0}, 1);
  ASSERT_EQ(loads.size(), 1u);
  EXPECT_DOUBLE_EQ(loads[0], 6.0);
}

TEST(ScheduleTest, MoreSlotsThanTasksLeavesTrailingSlotsIdle) {
  const std::vector<double> loads = ScheduleLoads({2.0, 7.0}, 5);
  ASSERT_EQ(loads.size(), 5u);
  EXPECT_DOUBLE_EQ(loads[0], 2.0);
  EXPECT_DOUBLE_EQ(loads[1], 7.0);
  for (size_t s = 2; s < loads.size(); ++s) EXPECT_DOUBLE_EQ(loads[s], 0.0);
}

TEST(ScheduleTest, EqualCostTiesBreakTowardLowestSlotIndex) {
  // Five unit tasks on three slots: ties on finish time always pick the
  // lowest-numbered free slot, so the assignment is round-robin.
  const std::vector<double> loads = ScheduleLoads({1.0, 1.0, 1.0, 1.0, 1.0}, 3);
  ASSERT_EQ(loads.size(), 3u);
  EXPECT_DOUBLE_EQ(loads[0], 2.0);
  EXPECT_DOUBLE_EQ(loads[1], 2.0);
  EXPECT_DOUBLE_EQ(loads[2], 1.0);
}

TEST(ScheduleTest, AssignmentIsDeterministic) {
  const std::vector<double> costs = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  EXPECT_EQ(ScheduleLoads(costs, 3), ScheduleLoads(costs, 3));
  EXPECT_DOUBLE_EQ(Makespan(costs, 3), Makespan(costs, 3));
}

TEST(ClusterSpecTest, PaperDefaults) {
  ClusterSpec spec;
  EXPECT_EQ(spec.num_nodes, 40);
  EXPECT_EQ(spec.map_slots(), 320);
  EXPECT_EQ(spec.reduce_slots(), 320);
  // 40 nodes × 1 Gbps = 5 GB/s aggregate shuffle bandwidth.
  EXPECT_DOUBLE_EQ(spec.ShuffleBytesPerSecond(), 40 * 1e9 / 8.0);
}

TEST(ClusterSpecTest, LocalHelper) {
  const ClusterSpec spec = ClusterSpec::Local(4);
  EXPECT_EQ(spec.num_nodes, 1);
  EXPECT_EQ(spec.map_slots(), 4);
  EXPECT_EQ(spec.reduce_slots(), 4);
}

}  // namespace
}  // namespace dod
