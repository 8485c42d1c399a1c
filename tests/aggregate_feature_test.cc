// Copyright 2026 The DOD Authors.
//
// Aggregate Features (Def. 5.1), merge semantics (Def. 5.4), the
// rectangular-shape test (Def. 5.3), and the merging criteria (Def. 5.2).

#include "dshc/aggregate_feature.h"

#include <gtest/gtest.h>

namespace dod {
namespace {

Rect Box(double x0, double y0, double x1, double y1) {
  return Rect(Point{x0, y0}, Point{x1, y1});
}

TEST(AggregateFeatureTest, DensityIsCountOverArea) {
  AggregateFeature af{50.0, Box(0, 0, 5, 2)};
  EXPECT_DOUBLE_EQ(af.density(), 5.0);
}

TEST(AggregateFeatureTest, ZeroAreaDensityIsZero) {
  AggregateFeature af{50.0, Rect(Point{1.0, 1.0}, Point{1.0, 2.0})};
  EXPECT_DOUBLE_EQ(af.density(), 0.0);
}

TEST(AggregateFeatureTest, MergeAddsCountsAndUnionsBoxes) {
  AggregateFeature a{10.0, Box(0, 0, 1, 1)};
  AggregateFeature b{20.0, Box(1, 0, 2, 1)};
  const AggregateFeature merged = AggregateFeature::Merge(a, b);
  EXPECT_DOUBLE_EQ(merged.num_points, 30.0);
  EXPECT_EQ(merged.bounds, Box(0, 0, 2, 1));
  EXPECT_DOUBLE_EQ(merged.density(), 15.0);
}

TEST(FormsRectangleTest, HorizontallyTouchingAlignedBoxes) {
  EXPECT_TRUE(FormsRectangle(Box(0, 0, 1, 1), Box(1, 0, 2, 1)));
  EXPECT_TRUE(FormsRectangle(Box(1, 0, 2, 1), Box(0, 0, 1, 1)));
}

TEST(FormsRectangleTest, VerticallyTouchingAlignedBoxes) {
  EXPECT_TRUE(FormsRectangle(Box(0, 0, 3, 1), Box(0, 1, 3, 2)));
}

TEST(FormsRectangleTest, RejectsMisalignedBoxes) {
  // Touching but different heights: union is L-shaped.
  EXPECT_FALSE(FormsRectangle(Box(0, 0, 1, 1), Box(1, 0, 2, 2)));
  // Aligned but separated: union has a gap.
  EXPECT_FALSE(FormsRectangle(Box(0, 0, 1, 1), Box(2, 0, 3, 1)));
  // Diagonal corner touch.
  EXPECT_FALSE(FormsRectangle(Box(0, 0, 1, 1), Box(1, 1, 2, 2)));
}

TEST(FormsRectangleTest, RejectsIdenticalBoxes) {
  EXPECT_FALSE(FormsRectangle(Box(0, 0, 1, 1), Box(0, 0, 1, 1)));
}

TEST(FormsRectangleTest, ToleranceAbsorbsFloatNoise) {
  EXPECT_TRUE(FormsRectangle(Box(0, 0, 1, 1), Box(1.0 + 1e-12, 0, 2, 1),
                             /*eps=*/1e-9));
}

TEST(FormsRectangleTest, ThreeDimensional) {
  const Rect a(Point{0.0, 0.0, 0.0}, Point{1.0, 1.0, 1.0});
  const Rect b(Point{0.0, 0.0, 1.0}, Point{1.0, 1.0, 2.0});
  const Rect c(Point{0.0, 0.0, 1.0}, Point{1.0, 2.0, 2.0});
  EXPECT_TRUE(FormsRectangle(a, b));
  EXPECT_FALSE(FormsRectangle(a, c));
}

// Criteria with the cost cap disabled.
MergingCriteria Criteria(double t_diff, double t_max_points) {
  MergingCriteria criteria;
  criteria.t_diff = t_diff;
  criteria.t_max_points = t_max_points;
  return criteria;
}

TEST(MergingCriteriaTest, AllThreeConditionsRequired) {
  const MergingCriteria criteria =
      Criteria(/*t_diff=*/1.0, /*t_max_points=*/100.0);
  AggregateFeature a{10.0, Box(0, 0, 1, 1)};   // density 10
  AggregateFeature b{10.5, Box(1, 0, 2, 1)};   // density 10.5, rectangular
  EXPECT_TRUE(criteria.CanMerge(a, b));

  // (1) density difference too large.
  AggregateFeature dense{50.0, Box(1, 0, 2, 1)};
  EXPECT_FALSE(criteria.CanMerge(a, dense));

  // (2) non-rectangular union.
  AggregateFeature offset{10.0, Box(1, 0.5, 2, 1.5)};
  EXPECT_FALSE(criteria.CanMerge(a, offset));

  // (3) cardinality cap.
  const MergingCriteria tight = Criteria(1.0, 15.0);
  EXPECT_FALSE(tight.CanMerge(a, b));
}

TEST(MergingCriteriaTest, DensityThresholdIsStrict) {
  const MergingCriteria criteria =
      Criteria(/*t_diff=*/0.5, /*t_max_points=*/1e9);
  AggregateFeature a{10.0, Box(0, 0, 1, 1)};
  AggregateFeature b{10.5, Box(1, 0, 2, 1)};  // |Δdensity| == 0.5 exactly
  EXPECT_FALSE(criteria.CanMerge(a, b));
}

}  // namespace
}  // namespace dod
