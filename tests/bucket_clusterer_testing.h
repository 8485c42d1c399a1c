// Copyright 2026 The DOD Authors.
//
// Shared helpers for the BucketClusterer and DSHC tests: unit-bucket scans,
// merging criteria, and the label-grid and tiling checks.

#ifndef DOD_TESTS_BUCKET_CLUSTERER_TESTING_H_
#define DOD_TESTS_BUCKET_CLUSTERER_TESTING_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "dshc/dshc.h"
#include "partition/partition_plan.h"

namespace dod {

inline CellCoord At(int x, int y) {
  CellCoord coord;
  coord.dims = 2;
  coord.c[0] = x;
  coord.c[1] = y;
  return coord;
}

inline MergingCriteria Criteria(double t_diff, double t_max_points = 1e18) {
  MergingCriteria criteria;
  criteria.t_diff = t_diff;
  criteria.t_max_points = t_max_points;
  return criteria;
}

inline void ExpectTilesDomain(const std::vector<AggregateFeature>& clusters,
                       const Rect& domain) {
  std::vector<Rect> rects;
  for (const AggregateFeature& af : clusters) rects.push_back(af.bounds);
  const PartitionPlan plan(domain, 1.0, rects);
  EXPECT_TRUE(plan.Validate().ok()) << plan.Validate().ToString();
}

// A side×side grid of unit buckets, (x, y) covering [x, x+1] x [y, y+1],
// and a clusterer over it.
struct UnitScan {
  UnitScan(int side, const MergingCriteria& criteria)
      : grid(Rect::Cube(2, 0.0, side), side), clusterer(grid, criteria) {}
  void Insert(int x, int y, double weight) {
    clusterer.InsertBucket(At(x, y), weight);
  }
  std::vector<AggregateFeature> Clusters() const {
    return clusterer.Clusters();
  }

  MiniBucketGrid grid;
  BucketClusterer clusterer;
};

// Every inserted bucket's label names the one cluster whose box holds it,
// and cluster boxes hold inserted buckets only, without overlapping.
inline testing::AssertionResult LabelsMatchClusters(const UnitScan& scan) {
  const int side = scan.grid.buckets_per_dim();
  const std::vector<AggregateFeature> clusters = scan.Clusters();
  std::vector<int> owner(side * side, -1);
  for (size_t i = 0; i < clusters.size(); ++i) {
    const Rect& box = clusters[i].bounds;
    for (int x = box.lo(0); x < box.hi(0); ++x) {
      for (int y = box.lo(1); y < box.hi(1); ++y) {
        if (owner[x * side + y] >= 0) {
          return testing::AssertionFailure() << "clusters overlap at " << x
                                             << "," << y;
        }
        owner[x * side + y] = static_cast<int>(i);
      }
    }
  }
  std::map<uint32_t, int> cluster_of_label;
  for (int x = 0; x < side; ++x) {
    for (int y = 0; y < side; ++y) {
      const uint32_t label = scan.clusterer.LabelAt(At(x, y));
      const int held_by = owner[x * side + y];
      if ((label == BucketClusterer::kNoCluster) != (held_by < 0) ||
          (held_by >= 0 &&
           cluster_of_label.try_emplace(label, held_by).first->second !=
               held_by)) {
        return testing::AssertionFailure()
               << "bucket " << x << "," << y << " has label " << label
               << " in cluster " << held_by;
      }
    }
  }
  if (cluster_of_label.size() != clusters.size() ||
      scan.clusterer.num_clusters() != clusters.size()) {
    return testing::AssertionFailure() << cluster_of_label.size()
                                       << " labels, " << clusters.size()
                                       << " clusters";
  }
  return testing::AssertionSuccess();
}

}  // namespace dod

#endif  // DOD_TESTS_BUCKET_CLUSTERER_TESTING_H_
