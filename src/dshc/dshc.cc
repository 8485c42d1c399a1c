// Copyright 2026 The DOD Authors.

#include "dshc/dshc.h"

#include <algorithm>
#include <cmath>

#include "common/stats.h"

namespace dod {

DshcThresholds ResolveThresholds(const DistributionSketch& sketch,
                                 const DshcOptions& options) {
  DshcThresholds out;

  if (options.t_diff > 0.0) {
    out.t_diff = options.t_diff;
  } else {
    // Auto rule. Tdiff must (a) absorb the *sampling noise* of bucket
    // counts — a bucket holding c sampled points has density uncertainty
    // ~sqrt(c)·scale/area, so two same-density buckets differ by a few of
    // those — while (b) staying below the spread between genuinely
    // different density bands. We take the max of the observed density
    // stddev and a 4-sigma Poisson noise floor at the mean bucket count.
    RunningStats densities;
    RunningStats counts;
    double mean_area = 0.0;
    const double scale = sketch.Scale();
    for (const MiniBucketGrid::Bucket& bucket : sketch.grid.buckets()) {
      const double area = sketch.grid.BucketRect(bucket.coord).Area();
      if (area <= 0.0) continue;
      densities.Add(bucket.weight * scale / area);
      counts.Add(bucket.weight);
      mean_area += area;
    }
    double noise_floor = 1e-12;
    if (counts.count() > 0) {
      mean_area /= static_cast<double>(counts.count());
      noise_floor =
          4.0 * std::sqrt(std::max(1.0, counts.mean())) * scale / mean_area;
    }
    out.t_diff = std::max(densities.stddev(), noise_floor);
  }

  if (options.t_max_points > 0.0) {
    out.t_max_points = options.t_max_points;
  } else {
    const double total = sketch.EstimatedCardinality();
    const double per_partition =
        total / std::max<size_t>(1, options.target_partitions);
    out.t_max_points =
        std::max(1.0, options.max_cardinality_factor * per_partition);
  }

  if (options.cost_aware_cap) {
    // Baseline total workload: every mini bucket costed on its own under
    // its Corollary 4.3 algorithm. The cap is a multiple of the mean
    // per-partition share of that total.
    const double scale = sketch.Scale();
    double total_cost = 0.0;
    for (const MiniBucketGrid::Bucket& bucket : sketch.grid.buckets()) {
      PartitionStats stats;
      stats.dims = sketch.grid.dims();
      stats.area = sketch.grid.BucketRect(bucket.coord).Area();
      stats.cardinality = static_cast<size_t>(bucket.weight * scale + 0.5);
      total_cost += PlanningCost(SelectAlgorithm(stats, options.detection),
                                 stats, options.detection);
    }
    out.t_max_cost =
        std::max(1.0, options.max_cost_factor * total_cost /
                          std::max<size_t>(1, options.target_partitions));
  }
  return out;
}

std::function<double(const AggregateFeature&)> ClusterCostFn(
    int dims, const DetectionParams& params) {
  return [dims, params](const AggregateFeature& af) {
    PartitionStats stats;
    stats.dims = dims;
    stats.area = af.bounds.Area();
    stats.cardinality = static_cast<size_t>(af.num_points + 0.5);
    return PlanningCost(SelectAlgorithm(stats, params), stats, params);
  };
}

namespace {

// The Morton (Z-order) keys of every bucket of a grid with `per_dim`
// buckets along each of `dims` dimensions, ascending. A key interleaves the
// coordinates' `bits` bits, most significant first, dimension 0 highest
// within each group. Only real buckets get a key, so the cost is
// O(B log B) for B buckets, never the power-of-two-padded code space.
std::vector<uint64_t> SortedMortonKeys(int dims, int per_dim, int bits) {
  size_t total = 1;
  for (int d = 0; d < dims; ++d) total *= static_cast<size_t>(per_dim);
  std::vector<uint64_t> keys;
  keys.reserve(total);
  int32_t coord[kMaxDimensions] = {0};
  while (true) {
    uint64_t key = 0;
    for (int b = bits - 1; b >= 0; --b) {
      for (int d = 0; d < dims; ++d) {
        key = (key << 1) | ((static_cast<uint64_t>(coord[d]) >> b) & 1u);
      }
    }
    keys.push_back(key);
    int d = dims - 1;
    while (d >= 0) {
      if (++coord[d] < per_dim) break;
      coord[d] = 0;
      --d;
    }
    if (d < 0) break;
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// The bucket coordinate a SortedMortonKeys key encodes.
CellCoord MortonCoord(uint64_t key, int dims, int bits) {
  CellCoord coord;
  coord.dims = dims;
  for (int b = 0; b < bits; ++b) {
    for (int d = dims - 1; d >= 0; --d) {
      coord.c[d] |= static_cast<int32_t>(key & 1u) << b;
      key >>= 1;
    }
  }
  return coord;
}

}  // namespace

std::vector<AggregateFeature> ClusterMiniBuckets(
    const DistributionSketch& sketch, const DshcOptions& options) {
  const MiniBucketGrid& grid = sketch.grid;
  const int dims = grid.dims();
  const int per_dim = grid.buckets_per_dim();
  DOD_CHECK_MSG(
      std::pow(static_cast<double>(per_dim), dims) <= kMaxDshcBuckets,
      "mini-bucket grid too fine for exhaustive DSHC scan");

  const DshcThresholds thresholds = ResolveThresholds(sketch, options);
  AfTreeOptions tree_options;
  tree_options.t_diff = thresholds.t_diff;
  tree_options.t_max_points = thresholds.t_max_points;
  if (options.cost_aware_cap) {
    tree_options.cost_fn = ClusterCostFn(dims, options.detection);
    tree_options.t_max_cost = thresholds.t_max_cost;
  }
  tree_options.max_fanout = options.max_fanout;
  AfTree tree(dims, tree_options);

  // Single scan over every bucket (empty ones included, so the clusters
  // tile the domain) in Morton (Z) order: the bucket coordinates' bits
  // interleaved, most significant first. Every aligned 2^j-sided block
  // (clipped at the grid's far edge) is one run of consecutive buckets, so
  // Def. 5.2's rectangular merges grow 2×2, 4×4, ... squares until T_max#
  // or the cost cap stops them. A row-major scan grows one-bucket-wide
  // strips instead, and a partition's r-extension, which Def. 3.3
  // replicates, grows with its perimeter.
  int bits = 0;
  while ((1 << bits) < per_dim) ++bits;
  const double scale = sketch.Scale();
  for (uint64_t key : SortedMortonKeys(dims, per_dim, bits)) {
    const CellCoord coord = MortonCoord(key, dims, bits);
    tree.InsertBucket(grid.BucketRect(coord), grid.WeightAt(coord) * scale);
  }
  return tree.Clusters();
}

}  // namespace dod
