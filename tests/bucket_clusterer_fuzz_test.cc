// Copyright 2026 The DOD Authors.
//
// BucketClusterer fuzz: randomized bucket workloads inserted in random
// order. After every insertion the label grid must match the cluster boxes;
// at the end the clusters must partition the inserted weight, respect the
// cap, leave no mergeable pair and tile the domain.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bucket_clusterer_testing.h"
#include "common/random.h"
#include "dshc/dshc.h"

namespace dod {
namespace {

struct FuzzCase {
  uint64_t seed;
  int side;  // buckets per dimension
  double t_diff;
  double t_max_points;
  bool cost_cap;
};

class BucketClustererFuzz : public testing::TestWithParam<FuzzCase> {};

TEST_P(BucketClustererFuzz, LabelsMaximalityAndConservation) {
  const FuzzCase& c = GetParam();
  Rng rng(c.seed);
  MergingCriteria criteria = Criteria(c.t_diff, c.t_max_points);
  if (c.cost_cap) {
    criteria.cost_fn = ClusterCostFn(2, DetectionParams{5.0, 4});
    criteria.t_max_cost = 5e5;
  }
  UnitScan scan(c.side, criteria);

  // Random density landscape: plateaus of three density bands with
  // occasional spikes, inserted in random order (harder than row-major).
  double total_weight = 0.0;
  for (uint32_t index : RandomPermutation(c.side * c.side, rng)) {
    double weight;
    const double band = rng.NextDouble();
    if (band < 0.5) {
      weight = 0.0;
    } else if (band < 0.8) {
      weight = 5.0 + rng.NextUniform(0.0, 2.0);
    } else if (band < 0.97) {
      weight = 60.0 + rng.NextUniform(0.0, 10.0);
    } else {
      weight = 500.0;
    }
    total_weight += weight;
    scan.Insert(index % c.side, index / c.side, weight);
    ASSERT_TRUE(LabelsMatchClusters(scan)) << "after bucket " << index;
  }

  // Weight conservation and the cap.
  const std::vector<AggregateFeature> clusters = scan.Clusters();
  double cluster_weight = 0.0;
  for (const AggregateFeature& af : clusters) {
    cluster_weight += af.num_points;
    if (c.t_max_points < 1e17) {
      EXPECT_LT(af.num_points, c.t_max_points + 500.0);
    }
  }
  EXPECT_NEAR(cluster_weight, total_weight, 1e-6);

  // Maximality: no two final clusters may still merge (CanMerge includes
  // Def. 5.3's shared-face test).
  for (size_t i = 0; i < clusters.size(); ++i) {
    for (size_t j = i + 1; j < clusters.size(); ++j) {
      EXPECT_FALSE(criteria.CanMerge(clusters[i], clusters[j]))
          << clusters[i].ToString() << " and " << clusters[j].ToString();
    }
  }

  // Tiling: clusters are disjoint rectangles covering the full domain.
  ExpectTilesDomain(clusters, scan.grid.domain());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, BucketClustererFuzz,
    testing::Values(FuzzCase{1, 12, 3.0, 1e18, false},
                    FuzzCase{2, 16, 10.0, 1e18, false},
                    FuzzCase{3, 16, 1.0, 1e18, false},
                    FuzzCase{4, 12, 5.0, 800.0, false},
                    FuzzCase{5, 16, 8.0, 1e18, true},
                    FuzzCase{6, 20, 2.0, 2000.0, true},
                    FuzzCase{7, 10, 1e9, 1e18, false},   // merge-everything
                    FuzzCase{8, 10, 1e-9, 1e18, false}),  // merge-nothing
    [](const testing::TestParamInfo<FuzzCase>& info) {
      return "case" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace dod
