// Copyright 2026 The DOD Authors.
//
// DSHC — density and spatial-aware hierarchical clustering (Sec. V-A,
// step 1). Groups mini buckets of similar density into rectangular
// partitions with a single scan through the AF-tree, subject to the
// constrained multi-objective clustering (MOC) requirements: density
// similarity, spatial adjacency, rectangular shape, and a per-partition
// cardinality cap (reducer main-memory bound).

#ifndef DOD_DSHC_DSHC_H_
#define DOD_DSHC_DSHC_H_

#include <vector>

#include "dshc/af_tree.h"
#include "partition/minibucket.h"

namespace dod {

struct DshcOptions {
  // Def. 5.2 Tdiff — maximum absolute density difference for a merge.
  // <= 0 selects an automatic threshold derived from the spread of the
  // sketch's bucket densities.
  double t_diff = -1.0;
  // Def. 5.2 Tmax# — maximum estimated points per partition (the reducer
  // main-memory bound). <= 0 selects an automatic cap of
  // `max_cardinality_factor` times the mean partition load for
  // `target_partitions`.
  double t_max_points = -1.0;
  // Used by the automatic Tmax# / Tmax-cost rules.
  size_t target_partitions = 64;
  double max_cardinality_factor = 8.0;

  // Cost-aware merge cap: a merge is rejected when the merged cluster's
  // estimated detection cost (under its Corollary 4.3 algorithm) exceeds
  // `max_cost_factor` times the mean per-partition cost. Clusters whose
  // best algorithm is linear (strongly dense → Cell-Based; planning gives
  // the sparse regime no linear credit) may therefore grow toward the
  // memory bound, while quadratic middle-density Nested-Loop clusters stay
  // small — partition generation explicitly "considers the performance
  // properties of the detection algorithms" (the paper's challenge 3).
  // Disable to get pure Def. 5.2.
  bool cost_aware_cap = true;
  double max_cost_factor = 4.0;
  // Outlier parameters used by the cost cap and algorithm selection.
  DetectionParams detection;

  int max_fanout = 8;
};

// Effective thresholds chosen for a sketch (after auto-tuning).
struct DshcThresholds {
  double t_diff = 0.0;
  double t_max_points = 0.0;
  // 0 when the cost cap is disabled.
  double t_max_cost = 0.0;
};

DshcThresholds ResolveThresholds(const DistributionSketch& sketch,
                                 const DshcOptions& options);

// Estimated detection cost of a cluster under its Corollary 4.3 algorithm;
// the functional used by the cost-aware merge cap.
std::function<double(const AggregateFeature&)> ClusterCostFn(
    int dims, const DetectionParams& params);

// Largest mini-bucket grid (buckets_per_dim ^ dims buckets) the exhaustive
// DSHC scan accepts. DodPipeline::Run refuses a DMT run whose grid would
// exceed it before doing any work; ClusterMiniBuckets checks it again.
inline constexpr double kMaxDshcBuckets = 1 << 22;

// Runs DSHC over every mini bucket of the sketch (empty buckets included so
// the resulting clusters tile the whole domain), inserted in Morton order
// so that clusters grow as near-squares. Bucket counts are scaled
// to full-data estimates. Returns one AF per cluster; their bounding boxes
// are pairwise-disjoint rectangles covering the domain.
std::vector<AggregateFeature> ClusterMiniBuckets(
    const DistributionSketch& sketch, const DshcOptions& options);

}  // namespace dod

#endif  // DOD_DSHC_DSHC_H_
