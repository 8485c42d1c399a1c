// Copyright 2026 The DOD Authors.
//
// BucketClusterer, DSHC's merging-candidate index: Def. 5.2's merge/insert
// decisions, the recursive merge, the cardinality cap, the tie rule (lowest
// lower corner) and the label grid, over hand-built bucket workloads. After
// every insertion each label names the one cluster whose box holds the
// bucket, and at the end the clusters partition the inserted weight and
// tile the domain.

#include <gtest/gtest.h>

#include <cmath>

#include "bucket_clusterer_testing.h"
#include "common/random.h"
#include "dshc/dshc.h"

namespace dod {
namespace {

Rect Box(double x0, double y0, double x1, double y1) {
  return Rect(Point{x0, y0}, Point{x1, y1});
}

TEST(BucketClustererTest, FirstBucketBecomesOnlyCluster) {
  UnitScan scan(4, Criteria(1.0));
  scan.Insert(0, 0, 5.0);
  ASSERT_EQ(scan.clusterer.num_clusters(), 1u);
  EXPECT_DOUBLE_EQ(scan.Clusters()[0].num_points, 5.0);
  EXPECT_TRUE(LabelsMatchClusters(scan));
}

TEST(BucketClustererTest, SimilarAdjacentBucketsMerge) {
  UnitScan scan(4, Criteria(1.0));
  scan.Insert(0, 0, 5.0);
  scan.Insert(1, 0, 5.0);
  ASSERT_EQ(scan.clusterer.num_clusters(), 1u);
  EXPECT_DOUBLE_EQ(scan.Clusters()[0].num_points, 10.0);
  EXPECT_EQ(scan.Clusters()[0].bounds, Box(0, 0, 2, 1));
  EXPECT_TRUE(LabelsMatchClusters(scan));
}

TEST(BucketClustererTest, DissimilarDensityStaysSeparate) {
  UnitScan scan(4, Criteria(/*t_diff=*/1.0));
  scan.Insert(0, 0, 5.0);   // density 5
  scan.Insert(1, 0, 50.0);  // density 50
  EXPECT_EQ(scan.clusterer.num_clusters(), 2u);
}

TEST(BucketClustererTest, NonAdjacentBucketsStaySeparate) {
  UnitScan scan(4, Criteria(10.0));
  scan.Insert(0, 0, 5.0);
  scan.Insert(3, 0, 5.0);  // gap of 2
  scan.Insert(1, 1, 5.0);  // corner contact only
  EXPECT_EQ(scan.clusterer.num_clusters(), 3u);
  EXPECT_TRUE(LabelsMatchClusters(scan));
}

TEST(BucketClustererTest, CardinalityCapStopsMerging) {
  UnitScan scan(4, Criteria(10.0, /*t_max_points=*/12.0));
  scan.Insert(0, 0, 5.0);
  scan.Insert(1, 0, 5.0);  // merge → 10
  scan.Insert(2, 0, 5.0);  // 10 + 5 >= 12 → new cluster
  EXPECT_EQ(scan.clusterer.num_clusters(), 2u);
}

TEST(BucketClustererTest, RecursiveMergeFormsLargeRectangles) {
  // A 4x4 block of equal-density buckets scanned row-major must collapse
  // into a single cluster via recursive strip merging.
  UnitScan scan(4, Criteria(1.0));
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) scan.Insert(x, y, 2.0);
  }
  ASSERT_EQ(scan.clusterer.num_clusters(), 1u);
  EXPECT_EQ(scan.Clusters()[0].bounds, Box(0, 0, 4, 4));
  EXPECT_DOUBLE_EQ(scan.Clusters()[0].num_points, 32.0);
  EXPECT_TRUE(LabelsMatchClusters(scan));
}

TEST(BucketClustererTest, TwoDensityPlateausYieldTwoClusters) {
  // Left half dense, right half sparse → exactly two rectangular clusters.
  UnitScan scan(8, Criteria(2.0));
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 8; ++x) scan.Insert(x, y, x < 4 ? 20.0 : 1.0);
  }
  EXPECT_EQ(scan.clusterer.num_clusters(), 2u);
  EXPECT_TRUE(LabelsMatchClusters(scan));
}

TEST(BucketClustererTest, MergesOnlyBoxesWhenBoundariesRoundTogether) {
  // Four rows spanning two ulps at 1e12: row 0 rounds to zero height, so
  // the column of rows 0-1 and the bucket beside row 1 have equal y bounds
  // in doubles, and Def. 5.3's double test alone would merge them into a
  // non-box. The integer face test refuses.
  const double lo = 1e12;
  const double ulp = std::nextafter(lo, 2e12) - lo;
  const MiniBucketGrid grid(Rect(Point{0.0, lo}, Point{4.0, lo + 2 * ulp}), 4);
  BucketClusterer clusterer(grid, Criteria(1e30));
  clusterer.InsertBucket(At(0, 0), 1.0);
  clusterer.InsertBucket(At(0, 1), 1.0);
  ASSERT_EQ(clusterer.num_clusters(), 1u);
  clusterer.InsertBucket(At(1, 1), 1.0);
  EXPECT_EQ(clusterer.num_clusters(), 2u);
}

TEST(BucketClustererTest, TiesGoToTheLowestLowerCorner) {
  // Bucket (1, 1) has two mergeable neighbours at |Δdensity| 0: (1, 0),
  // inserted first, and (0, 1), whose lower corner sorts first. It joins
  // (0, 1); the pair then shares no full face with (1, 0).
  UnitScan square(2, Criteria(1.0));
  square.Insert(1, 0, 5.0);
  square.Insert(0, 1, 5.0);
  square.Insert(1, 1, 5.0);
  ASSERT_EQ(square.Clusters().size(), 2u);
  EXPECT_EQ(square.Clusters()[0].bounds, Box(0, 1, 2, 2));
  EXPECT_EQ(square.Clusters()[1].bounds, Box(1, 0, 2, 1));
  // Along one dimension, with Tmax# admitting one merge only: (1, 0) joins
  // its left neighbour, and the older cluster on its right stays alone.
  UnitScan row(3, Criteria(1.0, /*t_max_points=*/12.0));
  row.Insert(2, 0, 5.0);
  row.Insert(0, 0, 5.0);
  row.Insert(1, 0, 5.0);
  ASSERT_EQ(row.Clusters().size(), 2u);
  EXPECT_EQ(row.Clusters()[0].bounds, Box(0, 0, 2, 1));
  EXPECT_EQ(row.Clusters()[1].bounds, Box(2, 0, 3, 1));
}

TEST(BucketClustererTest, StrictlyIncreasingDensitiesNeverMerge) {
  UnitScan scan(10, Criteria(/*t_diff=*/0.001));
  for (int i = 0; i < 60; ++i) {
    scan.Insert(i % 10, i / 10, 10.0 + i);
    ASSERT_TRUE(LabelsMatchClusters(scan)) << "after insert " << i;
  }
  EXPECT_EQ(scan.clusterer.num_clusters(), 60u);
}

TEST(BucketClustererTest, LabelsHoldUnderRandomizedWorkload) {
  // Random densities drawn from two bands, random insertion order.
  UnitScan scan(12, Criteria(/*t_diff=*/3.0));
  Rng rng(7);
  for (uint32_t index : RandomPermutation(12 * 12, rng)) {
    scan.Insert(index % 12, index / 12, rng.NextBernoulli(0.5) ? 2.0 : 40.0);
    ASSERT_TRUE(LabelsMatchClusters(scan));
  }
  EXPECT_GE(scan.clusterer.num_clusters(), 2u);
}

TEST(BucketClustererTest, ClustersPartitionTheWeightAndTileTheGrid) {
  UnitScan scan(8, Criteria(5.0, 200.0));
  Rng rng(11);
  double total = 0.0;
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      const double w = 1.0 + static_cast<double>(rng.NextBounded(30));
      total += w;
      scan.Insert(x, y, w);
    }
  }
  double cluster_sum = 0.0;
  for (const AggregateFeature& af : scan.Clusters()) {
    cluster_sum += af.num_points;
  }
  EXPECT_NEAR(cluster_sum, total, 1e-9);
  EXPECT_TRUE(LabelsMatchClusters(scan));
  ExpectTilesDomain(scan.Clusters(), scan.grid.domain());
}

}  // namespace
}  // namespace dod
