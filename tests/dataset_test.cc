// Copyright 2026 The DOD Authors.

#include "common/dataset.h"

#include <gtest/gtest.h>

#include <limits>

namespace dod {
namespace {

TEST(DatasetTest, AppendAndAccess) {
  Dataset data(2);
  EXPECT_TRUE(data.empty());
  const PointId a = data.Append(Point{1.0, 2.0});
  const PointId b = data.Append(Point{3.0, 4.0});
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(data.size(), 2u);
  EXPECT_EQ(data[b][0], 3.0);
  EXPECT_EQ(data.GetPoint(a), (Point{1.0, 2.0}));
}

TEST(DatasetTest, AppendRawPointer) {
  Dataset data(3);
  const double raw[3] = {1.0, 2.0, 3.0};
  data.Append(raw);
  EXPECT_EQ(data.GetPoint(0), (Point{1.0, 2.0, 3.0}));
}

TEST(DatasetTest, AppendAllConcatenates) {
  Dataset a(2), b(2);
  a.Append(Point{0.0, 0.0});
  b.Append(Point{1.0, 1.0});
  b.Append(Point{2.0, 2.0});
  a.AppendAll(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.GetPoint(2), (Point{2.0, 2.0}));
}

TEST(DatasetTest, BoundsCoverAllPoints) {
  Dataset data(2);
  data.Append(Point{1.0, 10.0});
  data.Append(Point{-5.0, 3.0});
  data.Append(Point{2.0, 7.0});
  const Rect bounds = data.Bounds();
  EXPECT_EQ(bounds.min(), (Point{-5.0, 3.0}));
  EXPECT_EQ(bounds.max(), (Point{2.0, 10.0}));
}

TEST(DatasetTest, ClearEmpties) {
  Dataset data(2);
  data.Append(Point{1.0, 1.0});
  data.Clear();
  EXPECT_TRUE(data.empty());
  EXPECT_EQ(data.size(), 0u);
}

TEST(DatasetTest, RawStorageIsRowMajor) {
  Dataset data(2);
  data.Append(Point{1.0, 2.0});
  data.Append(Point{3.0, 4.0});
  EXPECT_EQ(data.raw(), (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST(DatasetValidateTest, AcceptsFiniteCoordinates) {
  Dataset data(3);
  data.Append(Point{1.0, -2.5, 0.0});
  data.Append(Point{1e300, -1e300, 4.25});
  EXPECT_TRUE(data.Validate().ok());
  EXPECT_TRUE(Dataset(2).Validate().ok());  // empty is vacuously valid
}

TEST(DatasetValidateTest, RejectsNaNNamingPointAndDimension) {
  Dataset data(2);
  data.Append(Point{1.0, 2.0});
  data.Append(Point{3.0, std::numeric_limits<double>::quiet_NaN()});
  const Status status = data.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("point 1"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("dimension 1"), std::string::npos)
      << status.ToString();
}

TEST(DatasetValidateTest, RejectsInfinities) {
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Dataset data(2);
    data.Append(Point{bad, 0.0});
    EXPECT_EQ(data.Validate().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace dod
