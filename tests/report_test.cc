// Copyright 2026 The DOD Authors.

#include "core/report.h"

#include <gtest/gtest.h>

#include "data/generators.h"
#include "partition/sampler.h"

namespace dod {
namespace {

DodResult RunSmall(const DodConfig& config, const Dataset& data) {
  return DodPipeline(config).RunOrDie(data);
}

TEST(ReportTest, ReportMentionsKeyNumbers) {
  const Dataset data =
      GenerateUniform(1200, DomainForDensity(1200, 0.05), 3);
  DodConfig config = DodConfig::Dmt(DetectionParams{5.0, 4});
  const DodResult result = RunSmall(config, data);
  const std::string report = FormatRunReport(config, result, data.size());
  EXPECT_NE(report.find("DMT"), std::string::npos);
  EXPECT_NE(report.find("1200 points"), std::string::npos);
  EXPECT_NE(report.find("outliers"), std::string::npos);
  EXPECT_NE(report.find("Nested-Loop"), std::string::npos);
  EXPECT_NE(report.find("end-to-end"), std::string::npos);
  EXPECT_EQ(report.find("verify"), std::string::npos)
      << "single-pass run must not report a verify stage";
}

TEST(ReportTest, DomainRunReportsVerifyStage) {
  const Dataset data =
      GenerateUniform(1200, DomainForDensity(1200, 0.02), 5);
  DodConfig config = DodConfig::Baseline(
      DetectionParams{5.0, 4}, StrategyKind::kDomain,
      AlgorithmKind::kNestedLoop);
  const DodResult result = RunSmall(config, data);
  const std::string report = FormatRunReport(config, result, data.size());
  EXPECT_NE(report.find("verify"), std::string::npos);
  EXPECT_NE(report.find("off (verify job)"), std::string::npos);
}

TEST(SamplerAdaptationTest, EffectiveRateFloorsSmallData) {
  SamplerOptions options;
  options.rate = 0.005;
  options.min_sample_size = 4000;
  EXPECT_DOUBLE_EQ(EffectiveSamplingRate(options, 1000), 1.0);
  EXPECT_DOUBLE_EQ(EffectiveSamplingRate(options, 40000), 0.1);
  EXPECT_DOUBLE_EQ(EffectiveSamplingRate(options, 10000000), 0.005);
}

TEST(SamplerAdaptationTest, EffectiveBucketsTrackSampleSize) {
  SamplerOptions options;
  options.rate = 1.0;
  options.min_sample_size = 1;
  options.buckets_per_dim = 64;
  // 1000 samples → sqrt(100) = 10 buckets/dim.
  EXPECT_EQ(EffectiveBucketsPerDim(options, 1000), 10);
  // Tiny data clamps at the floor of 8.
  EXPECT_EQ(EffectiveBucketsPerDim(options, 50), 8);
  // Huge data clamps at the configured ceiling.
  EXPECT_EQ(EffectiveBucketsPerDim(options, 10000000), 64);
  // A ceiling below the floor stays the ceiling.
  options.buckets_per_dim = 4;
  EXPECT_EQ(EffectiveBucketsPerDim(options, 50), 4);
  options.buckets_per_dim = 64;
  options.adapt_resolution = false;
  EXPECT_EQ(EffectiveBucketsPerDim(options, 50), 64);
}

}  // namespace
}  // namespace dod
