// Copyright 2026 The DOD Authors.

#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dod {
namespace {

TEST(StatsTest, SumMeanMax) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Sum(v), 10.0);
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_DOUBLE_EQ(Max(v), 4.0);
}

TEST(StatsTest, EmptyInputs) {
  EXPECT_DOUBLE_EQ(Sum({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Max({}), 0.0);
  EXPECT_DOUBLE_EQ(ImbalanceFactor({}), 1.0);
}

TEST(StatsTest, ImbalanceFactorPerfectlyBalanced) {
  EXPECT_DOUBLE_EQ(ImbalanceFactor({3.0, 3.0, 3.0}), 1.0);
}

TEST(StatsTest, ImbalanceFactorSkewed) {
  // Loads {9, 1, 2}: mean 4, max 9 → 2.25.
  EXPECT_DOUBLE_EQ(ImbalanceFactor({9.0, 1.0, 2.0}), 2.25);
}

TEST(RunningStatsTest, MatchesBatchComputation) {
  const std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  RunningStats rs;
  for (double x : v) rs.Add(x);
  EXPECT_EQ(rs.count(), v.size());
  EXPECT_DOUBLE_EQ(rs.mean(), Mean(v));
  // Population stddev of {2, 4, 4, 4, 5, 5, 7, 9} is 2.
  EXPECT_NEAR(rs.stddev(), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats rs;
  rs.Add(42.0);
  EXPECT_DOUBLE_EQ(rs.mean(), 42.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

}  // namespace
}  // namespace dod
