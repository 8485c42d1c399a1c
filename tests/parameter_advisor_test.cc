// Copyright 2026 The DOD Authors.

#include "core/parameter_advisor.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/pipeline.h"
#include "data/generators.h"

namespace dod {
namespace {

double RealizedOutlierFraction(const Dataset& data,
                               const DetectionParams& params) {
  const std::vector<PointId> outliers =
      MakeDetector(AlgorithmKind::kCellBased)
          ->DetectOutliers(data, data.size(), params);
  return static_cast<double>(outliers.size()) / data.size();
}

TEST(ParameterAdvisorTest, HitsTargetFractionOnUniformData) {
  const Dataset data =
      GenerateUniform(10000, DomainForDensity(10000, 0.1), 3);
  AdvisorOptions options;
  options.min_neighbors = 4;
  options.target_outlier_fraction = 0.02;
  const ParameterSuggestion suggestion = SuggestParameters(data, options);
  ASSERT_GT(suggestion.params.radius, 0.0);
  const double realized =
      RealizedOutlierFraction(data, suggestion.params);
  // Within a factor of ~3 of the 2% target (quantile + sampling noise).
  EXPECT_GT(realized, 0.005);
  EXPECT_LT(realized, 0.06);
}

TEST(ParameterAdvisorTest, HitsTargetOnClusteredData) {
  SettlementProfile profile;
  const Dataset data =
      GenerateSettlements(15000, DomainForDensity(15000, 0.05), profile, 5);
  AdvisorOptions options;
  options.min_neighbors = 6;
  options.target_outlier_fraction = 0.05;
  const ParameterSuggestion suggestion = SuggestParameters(data, options);
  const double realized =
      RealizedOutlierFraction(data, suggestion.params);
  EXPECT_GT(realized, 0.01);
  EXPECT_LT(realized, 0.15);
}

TEST(ParameterAdvisorTest, SmallerTargetMeansLargerRadius) {
  const Dataset data =
      GenerateUniform(8000, DomainForDensity(8000, 0.1), 7);
  AdvisorOptions strict, loose;
  strict.target_outlier_fraction = 0.005;
  loose.target_outlier_fraction = 0.2;
  EXPECT_GT(SuggestParameters(data, strict).params.radius,
            SuggestParameters(data, loose).params.radius);
}

TEST(ParameterAdvisorTest, SamplingRateReported) {
  const Dataset big = GenerateUniform(20000, Rect::Cube(2, 0.0, 100.0), 9);
  AdvisorOptions options;
  options.sample_size = 1000;
  const ParameterSuggestion suggestion = SuggestParameters(big, options);
  EXPECT_NEAR(suggestion.sampling_rate, 0.05, 1e-9);
  const Dataset small = GenerateUniform(500, Rect::Cube(2, 0.0, 100.0), 11);
  EXPECT_DOUBLE_EQ(SuggestParameters(small, options).sampling_rate, 1.0);
}

TEST(ParameterAdvisorTest, DensityCorrectionScalesRadius) {
  // With a 4% sample in 2-d the correction is 0.2; the suggested radius
  // must equal the sampled quantile times that.
  const Dataset data = GenerateUniform(25000, Rect::Cube(2, 0.0, 200.0), 13);
  AdvisorOptions options;
  options.sample_size = 1000;
  const ParameterSuggestion suggestion = SuggestParameters(data, options);
  EXPECT_NEAR(suggestion.params.radius,
              suggestion.sampled_k_distance *
                  std::sqrt(suggestion.sampling_rate),
              1e-12);
}

TEST(ParameterAdvisorTest, FewerPointsThanKFallsBack) {
  Dataset data(2);
  data.Append(Point{0.0, 0.0});
  data.Append(Point{3.0, 4.0});
  AdvisorOptions options;
  options.min_neighbors = 10;
  const ParameterSuggestion suggestion = SuggestParameters(data, options);
  EXPECT_DOUBLE_EQ(suggestion.params.radius, 5.0);  // the domain diameter
}

TEST(ParameterAdvisorTest, Deterministic) {
  const Dataset data = GenerateUniform(5000, Rect::Cube(2, 0.0, 50.0), 15);
  AdvisorOptions options;
  EXPECT_DOUBLE_EQ(SuggestParameters(data, options).params.radius,
                   SuggestParameters(data, options).params.radius);
}

}  // namespace
}  // namespace dod
