// Copyright 2026 The DOD Authors.

#include "core/plan_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "data/geo_like.h"
#include "partition/sampler.h"

namespace dod {
namespace {

MultiTacticPlan MakePlan(StrategyKind strategy) {
  const Dataset data = GenerateGeoRegion(GeoRegion::kMassachusetts, 8000, 3);
  SamplerOptions options;
  options.rate = 0.3;
  options.buckets_per_dim = 24;
  const DistributionSketch sketch = BuildSketch(data, data.Bounds(), options);
  DodConfig config =
      strategy == StrategyKind::kDmt
          ? DodConfig::Dmt(DetectionParams{5.0, 4})
          : DodConfig::Baseline(DetectionParams{5.0, 4}, strategy,
                                AlgorithmKind::kNestedLoop);
  config.target_partitions = 16;
  config.num_reduce_tasks = 4;
  return BuildMultiTacticPlan(sketch, config);
}

void ExpectPlansEqual(const MultiTacticPlan& a, const MultiTacticPlan& b) {
  ASSERT_EQ(a.partition_plan.num_cells(), b.partition_plan.num_cells());
  EXPECT_EQ(a.partition_plan.domain(), b.partition_plan.domain());
  EXPECT_DOUBLE_EQ(a.partition_plan.radius(), b.partition_plan.radius());
  EXPECT_EQ(a.uses_supporting_area, b.uses_supporting_area);
  for (size_t i = 0; i < a.partition_plan.num_cells(); ++i) {
    EXPECT_EQ(a.partition_plan.cell(static_cast<uint32_t>(i)).bounds,
              b.partition_plan.cell(static_cast<uint32_t>(i)).bounds);
    EXPECT_EQ(a.algorithm_plan[i], b.algorithm_plan[i]);
    EXPECT_EQ(a.allocation[i], b.allocation[i]);
    EXPECT_DOUBLE_EQ(a.estimated_cost[i], b.estimated_cost[i]);
  }
}

TEST(PlanIoTest, RoundTripDmtPlan) {
  const MultiTacticPlan plan = MakePlan(StrategyKind::kDmt);
  const std::string text = SerializePlan(plan);
  Result<MultiTacticPlan> restored = DeserializePlan(text);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectPlansEqual(plan, restored.value());
}

TEST(PlanIoTest, RoundTripDomainPlanKeepsSupportFlag) {
  const MultiTacticPlan plan = MakePlan(StrategyKind::kDomain);
  ASSERT_FALSE(plan.uses_supporting_area);
  Result<MultiTacticPlan> restored = DeserializePlan(SerializePlan(plan));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_FALSE(restored.value().uses_supporting_area);
}

TEST(PlanIoTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/dod_plan_io_test.plan";
  const MultiTacticPlan plan = MakePlan(StrategyKind::kCDriven);
  ASSERT_TRUE(WritePlanFile(plan, path).ok());
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  Result<MultiTacticPlan> restored = DeserializePlan(text.str());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectPlansEqual(plan, restored.value());
  std::remove(path.c_str());
}

TEST(PlanIoTest, CommentsAreIgnored) {
  const MultiTacticPlan plan = MakePlan(StrategyKind::kUniSpace);
  std::string text = "# produced by preprocessing job\n" +
                     SerializePlan(plan) + "# trailing comment\n";
  EXPECT_TRUE(DeserializePlan(text).ok());
}

TEST(PlanIoTest, RejectsBadHeader) {
  EXPECT_FALSE(DeserializePlan("not-a-plan v1\n").ok());
  EXPECT_FALSE(DeserializePlan("dod-plan v2\n").ok());
  EXPECT_FALSE(DeserializePlan("").ok());
}

TEST(PlanIoTest, RejectsTruncatedInput) {
  const MultiTacticPlan plan = MakePlan(StrategyKind::kDDriven);
  const std::string text = SerializePlan(plan);
  // Chop the serialization at several points; every prefix must fail
  // cleanly (no crash, error status). The final cut removes the whole last
  // cell record so the declared cell count cannot be satisfied.
  const size_t last_cell = text.rfind("\ncell");
  ASSERT_NE(last_cell, std::string::npos);
  for (size_t cut : {text.size() / 4, text.size() / 2, last_cell + 1}) {
    EXPECT_FALSE(DeserializePlan(text.substr(0, cut)).ok()) << cut;
  }
}

TEST(PlanIoTest, RejectsStructurallyInvalidPlan) {
  // Two overlapping cells: parses but fails Def. 3.1 validation.
  const std::string text =
      "dod-plan v1\n"
      "dims 2 radius 1 support 1\n"
      "domain 0 0 10 10\n"
      "cells 2\n"
      "cell 0 0 6 10 alg nested_loop reducer 0 cost 1\n"
      "cell 5 0 10 10 alg cell_based reducer 1 cost 1\n";
  Result<MultiTacticPlan> plan = DeserializePlan(text);
  EXPECT_FALSE(plan.ok());
}

TEST(PlanIoTest, RejectsUnknownAlgorithm) {
  const std::string text =
      "dod-plan v1\n"
      "dims 2 radius 1 support 1\n"
      "domain 0 0 10 10\n"
      "cells 1\n"
      "cell 0 0 10 10 alg quantum reducer 0 cost 1\n";
  EXPECT_FALSE(DeserializePlan(text).ok());
}

}  // namespace
}  // namespace dod
