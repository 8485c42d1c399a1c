// Copyright 2026 The DOD Authors.
//
// The plan writer: the supporting-area flag of a Domain plan and
// WritePlanFile's bytes and errors. cli_smoke_test pins the byte-exact
// format of a CDriven and a DMT plan against files under tests/data/.

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

TEST(PlanIoTest, DomainPlanWritesSupportFlagZero) {
  const MultiTacticPlan plan = MakePlan(StrategyKind::kDomain);
  ASSERT_FALSE(plan.uses_supporting_area);
  const std::string text = SerializePlan(plan);
  EXPECT_EQ(text.rfind("dod-plan v1\ndims 2 radius 5 support 0\n", 0), 0u);
  EXPECT_NE(text.find(" alg nested_loop "), std::string::npos);
}

TEST(PlanIoTest, WritePlanFileWritesTheSerialization) {
  const std::string path = testing::TempDir() + "/dod_plan_io_test.plan";
  const MultiTacticPlan plan = MakePlan(StrategyKind::kCDriven);
  ASSERT_TRUE(WritePlanFile(plan, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), SerializePlan(plan));
  std::remove(path.c_str());
}

TEST(PlanIoTest, WritePlanFileReportsUnwritablePath) {
  const MultiTacticPlan plan = MakePlan(StrategyKind::kUniSpace);
  const Status status =
      WritePlanFile(plan, testing::TempDir() + "/no-such-dir/plan.txt");
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
}

}  // namespace
}  // namespace dod
