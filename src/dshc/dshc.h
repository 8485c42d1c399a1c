// Copyright 2026 The DOD Authors.
//
// DSHC — density and spatial-aware hierarchical clustering (Sec. V-A,
// step 1). Groups mini buckets of similar density into rectangular
// partitions with a single scan over the mini-bucket grid, subject to the
// constrained multi-objective clustering (MOC) requirements: density
// similarity, spatial adjacency, rectangular shape, and a per-partition
// cardinality cap (reducer main-memory bound).

#ifndef DOD_DSHC_DSHC_H_
#define DOD_DSHC_DSHC_H_

#include <cstdint>
#include <vector>

#include "dshc/aggregate_feature.h"
#include "partition/minibucket.h"

namespace dod {

struct DshcOptions {
  // Def. 5.2 Tdiff — maximum absolute density difference for a merge.
  // <= 0 selects an automatic threshold derived from the spread of the
  // sketch's bucket densities.
  double t_diff = -1.0;
  // Def. 5.2 Tmax# — maximum estimated points per partition (the reducer
  // main-memory bound). <= 0 selects an automatic cap of 8 times the mean
  // partition load for `target_partitions`.
  double t_max_points = -1.0;
  // Used by the automatic Tmax# and the cost cap.
  size_t target_partitions = 64;
  // Outlier parameters used by the cost cap and algorithm selection.
  DetectionParams detection;
};

// Effective thresholds chosen for a sketch (after auto-tuning).
struct DshcThresholds {
  double t_diff = 0.0;
  double t_max_points = 0.0;
  // Cost-aware merge cap: a merge is rejected when the merged cluster's
  // estimated detection cost (under its Corollary 4.3 algorithm) reaches 4
  // times the mean per-partition cost. Clusters whose best algorithm is
  // linear (strongly dense → Cell-Based; planning gives the sparse regime
  // no linear credit) may therefore grow toward the memory bound, while
  // quadratic middle-density Nested-Loop clusters stay small — partition
  // generation "considers the performance properties of the detection
  // algorithms" (the paper's challenge 3).
  double t_max_cost = 0.0;
};

DshcThresholds ResolveThresholds(const DistributionSketch& sketch,
                                 const DshcOptions& options);

// Estimated detection cost of a cluster under its Corollary 4.3 algorithm;
// the functional used by the cost-aware merge cap.
std::function<double(const AggregateFeature&)> ClusterCostFn(
    int dims, const DetectionParams& params);

// Largest mini-bucket grid (buckets_per_dim ^ dims buckets) DSHC accepts.
// DodPipeline::Run refuses a DMT run whose grid would exceed it before
// doing any work; BucketClusterer checks it again.
inline constexpr double kMaxDshcBuckets = 1 << 22;

// DSHC's clusters on the mini-bucket grid: one cluster label per bucket and,
// per live cluster, its Aggregate Feature and inclusive bucket box. The
// paper finds each merge's list of merging candidates with the AF-tree, an
// R-tree over the clusters; on a regular grid the labels answer the same
// question. A cluster that forms a rectangle with box R (Def. 5.3) shares
// one of R's faces exactly, so it holds the bucket just outside that face
// at R's lower corner: 2·d label lookups find every candidate.
//
// Merges follow Def. 5.2. An inserted bucket joins the most
// density-similar face neighbour that passes MergingCriteria::CanMerge, or
// starts a cluster of its own; the grown cluster then keeps absorbing its
// most density-similar mergeable face neighbour until none passes. An exact
// tie in |Δdensity| goes to the candidate whose box has the
// lexicographically lowest lower corner (CellCoordLess), the order in which
// Clusters() returns them.
class BucketClusterer {
 public:
  static constexpr uint32_t kNoCluster = UINT32_MAX;

  // Clusters buckets of `grid`'s geometry (its weights are not read), which
  // must outlive this object, under `criteria`.
  BucketClusterer(const MiniBucketGrid& grid, MergingCriteria criteria);

  // Adds the bucket at `coord`, holding an estimated `num_points` points,
  // and runs the merges above. Each bucket is inserted at most once.
  void InsertBucket(const CellCoord& coord, double num_points);

  // The live clusters in lower-corner order.
  std::vector<AggregateFeature> Clusters() const;

  size_t num_clusters() const { return num_live_; }

  // Label of the cluster holding the bucket at `coord`; kNoCluster outside
  // the grid or for a bucket not inserted yet.
  uint32_t LabelAt(const CellCoord& coord) const;

 private:
  struct Cluster {
    AggregateFeature af;
    CellCoord lo, hi;  // inclusive bucket box
    size_t buckets = 0;  // 0 for a dead cluster's slot
  };

  bool InGrid(const CellCoord& coord) const;
  // Row-major offset of an in-grid bucket in labels_.
  size_t Index(const CellCoord& coord) const;

  // Merges `id` with its best face neighbour until none passes.
  void MergeRecursively(uint32_t id);

  // Folds clusters `a` and `b` into one, relabelling the smaller; returns
  // the survivor's label.
  uint32_t Merge(uint32_t a, uint32_t b);

  const MiniBucketGrid& grid_;
  MergingCriteria criteria_;
  int per_dim_;
  // One label per bucket, row-major (last dimension fastest).
  std::vector<uint32_t> labels_;
  // Indexed by label; the labels of dead clusters wait on free_ for reuse.
  std::vector<Cluster> clusters_;
  std::vector<uint32_t> free_;
  size_t num_live_ = 0;
};

// Runs DSHC over every mini bucket of the sketch (empty buckets included so
// the resulting clusters tile the whole domain), inserted in Morton order
// so that clusters grow as near-squares. Bucket counts are scaled
// to full-data estimates. Returns one AF per cluster in lower-corner order;
// their bounding boxes are pairwise-disjoint rectangles covering the domain.
std::vector<AggregateFeature> ClusterMiniBuckets(
    const DistributionSketch& sketch, const DshcOptions& options);

}  // namespace dod

#endif  // DOD_DSHC_DSHC_H_
