// Copyright 2026 The DOD Authors.
//
// Cross-module integration: randomized end-to-end sweeps (pipeline vs
// oracle under random configurations), CSV → pipeline → CSV round trips,
// and dimensionality sweeps for the detectors.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "core/pipeline.h"
#include "data/generators.h"
#include "detection/brute_force.h"
#include "detection/cell_based.h"
#include "detection/nested_loop.h"
#include "io/csv.h"

namespace dod {
namespace {

std::vector<PointId> GroundTruth(const Dataset& data,
                                 const DetectionParams& params) {
  BruteForceDetector oracle;
  std::vector<uint32_t> local =
      oracle.DetectOutliers(data, data.size(), params, nullptr);
  return std::vector<PointId>(local.begin(), local.end());
}

TEST(IntegrationTest, RandomizedConfigurationFuzz) {
  // 20 rounds of: random data shape × random outlier params × random
  // pipeline configuration. Exactness must hold in every round.
  Rng rng(20260707);
  for (int round = 0; round < 20; ++round) {
    const size_t n = 400 + rng.NextBounded(1600);
    const double density = 0.004 * std::pow(100.0, rng.NextDouble());
    SettlementProfile profile;
    profile.num_cities = 1 + static_cast<int>(rng.NextBounded(6));
    profile.city_fraction = rng.NextUniform(0.3, 0.95);
    const Dataset data = GenerateSettlements(
        n, DomainForDensity(n, density), profile, rng.NextUint64());

    DetectionParams params;
    params.radius = rng.NextUniform(1.0, 10.0);
    params.min_neighbors = 1 + static_cast<int>(rng.NextBounded(12));

    const StrategyKind strategies[] = {
        StrategyKind::kDomain, StrategyKind::kUniSpace,
        StrategyKind::kDDriven, StrategyKind::kCDriven, StrategyKind::kDmt};
    const StrategyKind strategy = strategies[rng.NextBounded(5)];
    const AlgorithmKind algorithm = rng.NextBernoulli(0.5)
                                        ? AlgorithmKind::kNestedLoop
                                        : AlgorithmKind::kCellBased;
    DodConfig config = strategy == StrategyKind::kDmt
                           ? DodConfig::Dmt(params)
                           : DodConfig::Baseline(params, strategy, algorithm);
    config.target_partitions = 1 + rng.NextBounded(40);
    config.num_reduce_tasks = 1 + static_cast<int>(rng.NextBounded(40));
    config.num_blocks = 1 + rng.NextBounded(20);
    config.sampler.rate = rng.NextUniform(0.05, 0.5);
    config.sampler.buckets_per_dim =
        4 + static_cast<int>(rng.NextBounded(40));
    config.seed = rng.NextUint64();

    const DodResult result = DodPipeline(config).RunOrDie(data);
    EXPECT_EQ(result.outliers, GroundTruth(data, params))
        << "round " << round << " " << config.Label() << " n=" << n
        << " r=" << params.radius << " k=" << params.min_neighbors;
  }
}

TEST(IntegrationTest, CsvToPipelineToCsv) {
  const std::string in_path = testing::TempDir() + "/dod_integration_in.csv";
  const std::string out_path =
      testing::TempDir() + "/dod_integration_out.csv";
  const Dataset data =
      GenerateUniform(1500, DomainForDensity(1500, 0.03), 33);
  ASSERT_TRUE(WriteCsv(data, in_path).ok());

  Result<Dataset> loaded = ReadCsv(in_path);
  ASSERT_TRUE(loaded.ok());
  DetectionParams params{5.0, 4};
  DodConfig config = DodConfig::Dmt(params);
  config.sampler.rate = 0.3;
  const DodResult result = DodPipeline(config).RunOrDie(loaded.value());
  EXPECT_EQ(result.outliers, GroundTruth(data, params));

  Dataset outliers(data.dims());
  for (PointId id : result.outliers) outliers.Append(data[id]);
  ASSERT_TRUE(WriteCsv(outliers, out_path).ok());
  Result<Dataset> reread = ReadCsv(out_path);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread.value().size(), result.outliers.size());
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

struct DimCase {
  int dims;
  double radius;
};

class DimensionalitySweep : public testing::TestWithParam<DimCase> {};

TEST_P(DimensionalitySweep, DetectorsAgreeWithOracle) {
  const DimCase& c = GetParam();
  const Dataset data =
      GenerateUniform(900, Rect::Cube(c.dims, 0.0, 30.0), 41);
  DetectionParams params{c.radius, 4};
  BruteForceDetector oracle;
  NestedLoopDetector nl;
  CellBasedDetector cb;
  const auto expected = oracle.DetectOutliers(data, data.size(), params);
  EXPECT_EQ(nl.DetectOutliers(data, data.size(), params), expected);
  EXPECT_EQ(cb.DetectOutliers(data, data.size(), params), expected);
}

INSTANTIATE_TEST_SUITE_P(
    OneToFiveDims, DimensionalitySweep,
    testing::Values(DimCase{1, 0.3}, DimCase{2, 2.0}, DimCase{3, 4.0},
                    DimCase{4, 7.0}, DimCase{5, 10.0}),
    [](const testing::TestParamInfo<DimCase>& info) {
      return "dims" + std::to_string(info.param.dims);
    });

}  // namespace
}  // namespace dod
