// Copyright 2026 The DOD Authors.
//
// Pipeline robustness across configuration space: exactness must hold for
// any block count, reducer count, partition granularity, packing policy,
// sampling rate, cluster shape, dimensionality, and dataset family.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "data/distort.h"
#include "data/generators.h"
#include "data/geo_like.h"
#include "detection/brute_force.h"
#include "mapreduce/cluster.h"

namespace dod {
namespace {

std::vector<PointId> GroundTruth(const Dataset& data,
                                 const DetectionParams& params) {
  BruteForceDetector oracle;
  std::vector<uint32_t> local =
      oracle.DetectOutliers(data, data.size(), params, nullptr);
  return std::vector<PointId>(local.begin(), local.end());
}

Dataset TestData(uint64_t seed, size_t n = 2500) {
  SettlementProfile profile;
  return GenerateSettlements(n, DomainForDensity(n, 0.05), profile, seed);
}

TEST(PipelineConfigTest, SingleBlockSingleReducer) {
  const Dataset data = TestData(1);
  DetectionParams params{5.0, 4};
  DodConfig config = DodConfig::Dmt(params);
  config.num_blocks = 1;
  config.num_reduce_tasks = 1;
  config.sampler.rate = 0.3;
  EXPECT_EQ(DodPipeline(config).RunOrDie(data).outliers,
            GroundTruth(data, params));
}

TEST(PipelineConfigTest, ManyBlocksManyReducers) {
  const Dataset data = TestData(2);
  DetectionParams params{5.0, 4};
  DodConfig config = DodConfig::Dmt(params);
  config.num_blocks = 64;
  config.num_reduce_tasks = 128;
  config.sampler.rate = 0.3;
  EXPECT_EQ(DodPipeline(config).RunOrDie(data).outliers,
            GroundTruth(data, params));
}

TEST(PipelineConfigTest, SinglePartitionDegenerates) {
  const Dataset data = TestData(3);
  DetectionParams params{5.0, 4};
  for (StrategyKind strategy : {StrategyKind::kUniSpace,
                                StrategyKind::kDDriven,
                                StrategyKind::kDomain}) {
    DodConfig config = DodConfig::Baseline(params, strategy,
                                           AlgorithmKind::kNestedLoop);
    config.target_partitions = 1;
    config.sampler.rate = 0.3;
    EXPECT_EQ(DodPipeline(config).RunOrDie(data).outliers,
              GroundTruth(data, params))
        << StrategyKindName(strategy);
  }
}

TEST(PipelineConfigTest, AllPackingPolicies) {
  const Dataset data = TestData(4);
  DetectionParams params{5.0, 4};
  const std::vector<PointId> expected = GroundTruth(data, params);
  for (PackingPolicy policy :
       {PackingPolicy::kRoundRobin, PackingPolicy::kLpt,
        PackingPolicy::kKarmarkarKarp}) {
    DodConfig config = DodConfig::Dmt(params);
    config.packing = policy;
    config.sampler.rate = 0.3;
    EXPECT_EQ(DodPipeline(config).RunOrDie(data).outliers, expected)
        << PackingPolicyName(policy);
  }
}

TEST(PipelineConfigTest, VeryLowSamplingRateStaysExact) {
  // A bad sample may produce a poor plan, never a wrong answer.
  const Dataset data = TestData(5, 4000);
  DetectionParams params{5.0, 4};
  DodConfig config = DodConfig::Dmt(params);
  config.sampler.rate = 0.005;
  EXPECT_EQ(DodPipeline(config).RunOrDie(data).outliers,
            GroundTruth(data, params));
}

TEST(PipelineConfigTest, CoarseAndFineMiniBuckets) {
  const Dataset data = TestData(6);
  DetectionParams params{5.0, 4};
  const std::vector<PointId> expected = GroundTruth(data, params);
  for (int buckets : {4, 16, 96}) {
    DodConfig config = DodConfig::Dmt(params);
    config.sampler.rate = 0.3;
    config.sampler.buckets_per_dim = buckets;
    EXPECT_EQ(DodPipeline(config).RunOrDie(data).outliers, expected)
        << buckets << " buckets/dim";
  }
}

TEST(PipelineConfigTest, TinyClusterStillExact) {
  const Dataset data = TestData(7);
  DetectionParams params{5.0, 4};
  DodConfig config = DodConfig::Dmt(params);
  config.cluster = ClusterSpec::Local(2);
  config.sampler.rate = 0.3;
  const DodResult result = DodPipeline(config).RunOrDie(data);
  EXPECT_EQ(result.outliers, GroundTruth(data, params));
  EXPECT_GT(result.breakdown.detect.reduce_seconds, 0.0);
}

TEST(PipelineConfigTest, ThreeDimensionalPipeline) {
  const Dataset data = GenerateUniform(2000, Rect::Cube(3, 0.0, 60.0), 8);
  DetectionParams params{4.0, 5};
  DodConfig config = DodConfig::Dmt(params);
  config.sampler.rate = 0.3;
  config.sampler.buckets_per_dim = 12;
  EXPECT_EQ(DodPipeline(config).RunOrDie(data).outliers,
            GroundTruth(data, params));
}

TEST(PipelineConfigTest, DistortedDataPipeline) {
  const Dataset base = TestData(9, 800);
  DistortOptions distort;
  distort.copies = 3;
  const Dataset data = DistortReplicate(base, distort);
  DetectionParams params{5.0, 4};
  DodConfig config = DodConfig::Dmt(params);
  config.sampler.rate = 0.3;
  EXPECT_EQ(DodPipeline(config).RunOrDie(data).outliers,
            GroundTruth(data, params));
}

TEST(PipelineConfigTest, HierarchicalDataAllStrategies) {
  const Dataset data = GenerateHierarchical(MapLevel::kNewEngland, 900, 10);
  DetectionParams params{5.0, 4};
  const std::vector<PointId> expected = GroundTruth(data, params);
  for (StrategyKind strategy :
       {StrategyKind::kDomain, StrategyKind::kUniSpace,
        StrategyKind::kDDriven, StrategyKind::kCDriven, StrategyKind::kDmt}) {
    DodConfig config =
        strategy == StrategyKind::kDmt
            ? DodConfig::Dmt(params)
            : DodConfig::Baseline(params, strategy,
                                  AlgorithmKind::kCellBased);
    config.sampler.rate = 0.3;
    EXPECT_EQ(DodPipeline(config).RunOrDie(data).outliers, expected)
        << StrategyKindName(strategy);
  }
}

TEST(PipelineConfigTest, RadiusLargerThanDomain) {
  // Every point is everyone's neighbor; with k < n there are no outliers,
  // and every cell's supporting area covers the whole domain.
  const Dataset data = GenerateUniform(300, Rect::Cube(2, 0.0, 10.0), 11);
  DetectionParams params{100.0, 4};
  DodConfig config = DodConfig::Dmt(params);
  config.sampler.rate = 0.5;
  EXPECT_TRUE(DodPipeline(config).RunOrDie(data).outliers.empty());
}

TEST(PipelineConfigTest, KOfOne) {
  const Dataset data = TestData(12, 1200);
  DetectionParams params{3.0, 1};
  DodConfig config = DodConfig::Dmt(params);
  config.sampler.rate = 0.3;
  EXPECT_EQ(DodPipeline(config).RunOrDie(data).outliers,
            GroundTruth(data, params));
}

TEST(PipelineConfigTest, DuplicateHeavyData) {
  // Many exact duplicates (sensor pileups): grouping and self-exclusion
  // must stay correct.
  Dataset data(2);
  Rng rng(13);
  for (int i = 0; i < 300; ++i) {
    const Point p{rng.NextUniform(0.0, 100.0), rng.NextUniform(0.0, 100.0)};
    const int copies = 1 + static_cast<int>(rng.NextBounded(5));
    for (int c = 0; c < copies; ++c) data.Append(p);
  }
  DetectionParams params{5.0, 4};
  DodConfig config = DodConfig::Dmt(params);
  config.sampler.rate = 0.5;
  EXPECT_EQ(DodPipeline(config).RunOrDie(data).outliers,
            GroundTruth(data, params));
}

TEST(PipelineConfigTest, ClusterSpecAffectsSimulatedTimesOnly) {
  const Dataset data = TestData(14);
  DetectionParams params{5.0, 4};
  DodConfig small = DodConfig::Dmt(params);
  small.cluster = ClusterSpec::Local(1);
  small.sampler.rate = 0.3;
  DodConfig large = DodConfig::Dmt(params);
  large.cluster.num_nodes = 100;
  large.sampler.rate = 0.3;
  const DodResult a = DodPipeline(small).RunOrDie(data);
  const DodResult b = DodPipeline(large).RunOrDie(data);
  EXPECT_EQ(a.outliers, b.outliers);
  // Each run's reduce stage is the makespan of its own measured task costs
  // on its own slots.
  EXPECT_EQ(a.breakdown.detect.reduce_seconds,
            Makespan(a.detect_stats.reduce_task_seconds,
                     small.cluster.reduce_slots()));
  EXPECT_EQ(b.breakdown.detect.reduce_seconds,
            Makespan(b.detect_stats.reduce_task_seconds,
                     large.cluster.reduce_slots()));
  // Scheduling one run's costs on both specs keeps timing noise between
  // runs out of the comparison: one slot serializes everything, 800 reduce
  // slots parallelize fully.
  const std::vector<double>& costs = a.detect_stats.reduce_task_seconds;
  ASSERT_GE(costs.size(), 2u);
  EXPECT_GT(Makespan(costs, small.cluster.reduce_slots()),
            Makespan(costs, large.cluster.reduce_slots()));
}

TEST(PipelineConfigTest, CountersReportAlgorithmMix) {
  const Dataset data = GenerateHierarchical(MapLevel::kNewEngland, 2000, 15);
  DetectionParams params{5.0, 4};
  DodConfig config = DodConfig::Dmt(params);
  config.sampler.rate = 0.3;
  const DodResult result = DodPipeline(config).RunOrDie(data);
  const uint64_t nl_cells =
      result.detect_stats.counters.Get("cells.Nested-Loop");
  const uint64_t cb_cells =
      result.detect_stats.counters.Get("cells.Cell-Based");
  EXPECT_GT(nl_cells + cb_cells, 0u);
}

// Each sizing field below once reached a DOD_CHECK (or, for the rate, ran
// on a NaN); Run must refuse it as InvalidArgument naming the field.
void ExpectInvalidConfig(const DodConfig& config, const std::string& field) {
  const Dataset data = TestData(16, 500);
  const Result<DodResult> result = DodPipeline(config).Run(data);
  ASSERT_FALSE(result.ok()) << field;
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << field;
  EXPECT_NE(result.status().message().find(field), std::string::npos)
      << result.status().message();
}

TEST(PipelineConfigTest, ZeroBlocksIsInvalidArgument) {
  DodConfig config = DodConfig::Dmt(DetectionParams{5.0, 4});
  config.num_blocks = 0;
  ExpectInvalidConfig(config, "num_blocks");
}

TEST(PipelineConfigTest, NonPositiveReduceTasksIsInvalidArgument) {
  for (int reducers : {0, -3}) {
    DodConfig config = DodConfig::Dmt(DetectionParams{5.0, 4});
    config.num_reduce_tasks = reducers;
    ExpectInvalidConfig(config, "num_reduce_tasks");
  }
}

TEST(PipelineConfigTest, NonPositiveBucketsPerDimIsInvalidArgument) {
  for (int buckets : {0, -4}) {
    DodConfig config = DodConfig::Dmt(DetectionParams{5.0, 4});
    config.sampler.buckets_per_dim = buckets;
    ExpectInvalidConfig(config, "buckets_per_dim");
  }
}

TEST(PipelineConfigTest, NegativeOrNonFiniteSamplerRateIsInvalidArgument) {
  for (double rate : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                      std::numeric_limits<double>::infinity()}) {
    DodConfig config = DodConfig::Dmt(DetectionParams{5.0, 4});
    config.sampler.rate = rate;
    ExpectInvalidConfig(config, "sampler.rate");
  }
}

}  // namespace
}  // namespace dod
