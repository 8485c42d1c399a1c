// Copyright 2026 The DOD Authors.
//
// Point, distance kernels, Rect, and BoundsAccumulator.

#include <gtest/gtest.h>

#include <cmath>

#include "common/bounds.h"
#include "common/distance.h"
#include "common/point.h"

namespace dod {
namespace {

TEST(PointTest, InitializerListConstruction) {
  Point p{1.0, 2.0, 3.0};
  EXPECT_EQ(p.dims(), 3);
  EXPECT_EQ(p[0], 1.0);
  EXPECT_EQ(p[2], 3.0);
}

TEST(PointTest, ArrayConstruction) {
  const double raw[2] = {4.5, -2.0};
  Point p(raw, 2);
  EXPECT_EQ(p.dims(), 2);
  EXPECT_EQ(p[1], -2.0);
}

TEST(PointTest, Equality) {
  EXPECT_EQ((Point{1.0, 2.0}), (Point{1.0, 2.0}));
  EXPECT_FALSE((Point{1.0, 2.0}) == (Point{1.0, 2.1}));
  EXPECT_FALSE((Point{1.0}) == (Point{1.0, 0.0}));
}

TEST(PointTest, ToStringIsReadable) {
  EXPECT_EQ((Point{1.5, -2.0}).ToString(), "(1.5, -2)");
}

TEST(DistanceTest, EuclideanBasics) {
  const double a[2] = {0.0, 0.0};
  const double b[2] = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(SquaredEuclidean(a, b, 2), 25.0);
}

TEST(DistanceTest, WithinDistanceIsClosed) {
  const double a[2] = {0.0, 0.0};
  const double b[2] = {3.0, 4.0};
  EXPECT_TRUE(WithinDistance(a, b, 2, 5.0));   // exactly r counts (Def. 2.1)
  EXPECT_FALSE(WithinDistance(a, b, 2, 4.999));
}

TEST(RectTest, CubeAndArea) {
  const Rect r = Rect::Cube(2, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(r.Area(), 100.0);
  EXPECT_DOUBLE_EQ(r.Extent(0), 10.0);
  EXPECT_EQ(r.Center(), (Point{5.0, 5.0}));
}

TEST(RectTest, EmptyRect) {
  Rect r;
  EXPECT_TRUE(r.empty());
  EXPECT_DOUBLE_EQ(r.Area(), 0.0);
  const double p[1] = {0.0};
  EXPECT_FALSE(r.Contains(p));
}

TEST(RectTest, ContainsIsClosed) {
  const Rect r(Point{0.0, 0.0}, Point{1.0, 1.0});
  const double boundary[2] = {1.0, 0.5};
  EXPECT_TRUE(r.Contains(boundary));
  const double outside[2] = {1.5, 0.5};
  EXPECT_FALSE(r.Contains(outside));
}

TEST(RectTest, Covers) {
  const Rect a(Point{0.0, 0.0}, Point{2.0, 2.0});
  const Rect b(Point{1.0, 1.0}, Point{3.0, 3.0});
  EXPECT_TRUE(a.Covers(Rect(Point{0.5, 0.5}, Point{1.5, 1.5})));
  EXPECT_FALSE(a.Covers(b));
}

TEST(RectTest, ExpandedIsTheSupportExtension) {
  const Rect cell(Point{10.0, 20.0}, Point{30.0, 40.0});
  const Rect support = cell.Expanded(5.0);
  EXPECT_EQ(support.min(), (Point{5.0, 15.0}));
  EXPECT_EQ(support.max(), (Point{35.0, 45.0}));
  EXPECT_TRUE(support.Covers(cell));
}

TEST(RectTest, UnionWithRectAndPoint) {
  const Rect a(Point{0.0, 0.0}, Point{1.0, 1.0});
  const Rect b(Point{2.0, -1.0}, Point{3.0, 0.5});
  const Rect u = a.UnionWith(b);
  EXPECT_EQ(u.min(), (Point{0.0, -1.0}));
  EXPECT_EQ(u.max(), (Point{3.0, 1.0}));
  const Rect up = a.UnionWith(Point{-2.0, 0.5});
  EXPECT_EQ(up.min(), (Point{-2.0, 0.0}));
}

TEST(RectTest, UnionWithEmpty) {
  Rect empty;
  const Rect a(Point{0.0, 0.0}, Point{1.0, 1.0});
  EXPECT_EQ(empty.UnionWith(a), a);
  EXPECT_EQ(a.UnionWith(empty), a);
}

TEST(BoundsAccumulatorTest, TracksMinMax) {
  BoundsAccumulator acc(2);
  EXPECT_TRUE(acc.empty());
  const double p1[2] = {1.0, 5.0};
  const double p2[2] = {-2.0, 3.0};
  acc.Add(p1);
  acc.Add(p2);
  EXPECT_EQ(acc.count(), 2u);
  const Rect b = acc.bounds();
  EXPECT_EQ(b.min(), (Point{-2.0, 3.0}));
  EXPECT_EQ(b.max(), (Point{1.0, 5.0}));
}

TEST(BoundsAccumulatorTest, SinglePointIsDegenerateRect) {
  BoundsAccumulator acc(2);
  const double p[2] = {3.0, 4.0};
  acc.Add(p);
  EXPECT_DOUBLE_EQ(acc.bounds().Area(), 0.0);
  EXPECT_TRUE(acc.bounds().Contains(p));
}

}  // namespace
}  // namespace dod
