// Copyright 2026 The DOD Authors.

#include "dshc/dshc.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/stats.h"

namespace dod {
namespace {

// The automatic Tmax# is this many times the mean partition load.
constexpr double kMaxCardinalityFactor = 8.0;
// The cost cap is this many times the mean per-partition cost.
constexpr double kMaxCostFactor = 4.0;

}  // namespace

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
    out.t_max_points = std::max(1.0, kMaxCardinalityFactor * per_partition);
  }

  // Baseline total workload: every mini bucket costed on its own under its
  // Corollary 4.3 algorithm. The cap is a multiple of the mean
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
      std::max(1.0, kMaxCostFactor * total_cost /
                        std::max<size_t>(1, options.target_partitions));
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

BucketClusterer::BucketClusterer(const MiniBucketGrid& grid,
                                 MergingCriteria criteria)
    : grid_(grid),
      criteria_(std::move(criteria)),
      per_dim_(grid.buckets_per_dim()) {
  DOD_CHECK_MSG(
      std::pow(static_cast<double>(per_dim_), grid.dims()) <= kMaxDshcBuckets,
      "mini-bucket grid too fine for exhaustive DSHC scan");
  size_t buckets = 1;
  for (int d = 0; d < grid.dims(); ++d) buckets *= per_dim_;
  labels_.assign(buckets, kNoCluster);
}

size_t BucketClusterer::Index(const CellCoord& coord) const {
  size_t index = 0;
  for (int d = 0; d < grid_.dims(); ++d) index = index * per_dim_ + coord.c[d];
  return index;
}

bool BucketClusterer::InGrid(const CellCoord& coord) const {
  for (int d = 0; d < grid_.dims(); ++d) {
    if (coord.c[d] < 0 || coord.c[d] >= per_dim_) return false;
  }
  return true;
}

uint32_t BucketClusterer::LabelAt(const CellCoord& coord) const {
  return InGrid(coord) ? labels_[Index(coord)] : kNoCluster;
}

void BucketClusterer::InsertBucket(const CellCoord& coord,
                                   double num_points) {
  DOD_CHECK(coord.dims == grid_.dims() && InGrid(coord));
  DOD_CHECK(labels_[Index(coord)] == kNoCluster);
  uint32_t id;
  if (free_.empty()) {
    id = static_cast<uint32_t>(clusters_.size());
    clusters_.emplace_back();
  } else {
    id = free_.back();
    free_.pop_back();
  }
  clusters_[id] = Cluster{{num_points, grid_.BucketRect(coord)}, coord, coord,
                          1};
  labels_[Index(coord)] = id;
  ++num_live_;
  MergeRecursively(id);
}

void BucketClusterer::MergeRecursively(uint32_t id) {
  const int dims = grid_.dims();
  while (true) {
    const Cluster& self = clusters_[id];
    uint32_t best = kNoCluster;
    double best_diff = std::numeric_limits<double>::infinity();
    for (int d = 0; d < dims; ++d) {
      for (const int32_t outside : {self.lo.c[d] - 1, self.hi.c[d] + 1}) {
        CellCoord probe = self.lo;
        probe.c[d] = outside;
        const uint32_t other = LabelAt(probe);
        if (other == kNoCluster) continue;
        // Def. 5.3 on bucket boxes: equal extents off dimension d (they
        // touch along d by construction). CanMerge's double-coordinate
        // test agrees unless distinct bucket boundaries lie within its
        // tolerance, e.g. where they round together.
        const Cluster& candidate = clusters_[other];
        bool same_face = true;
        for (int j = 0; j < dims; ++j) {
          same_face &= j == d || (candidate.lo.c[j] == self.lo.c[j] &&
                                  candidate.hi.c[j] == self.hi.c[j]);
        }
        if (!same_face || !criteria_.CanMerge(self.af, candidate.af)) continue;
        const double diff =
            std::fabs(self.af.density() - candidate.af.density());
        const bool better =
            diff < best_diff ||
            (diff == best_diff && best != kNoCluster &&
             CellCoordLess{}(candidate.lo, clusters_[best].lo));
        if (better) {
          best = other;
          best_diff = diff;
        }
      }
    }
    if (best == kNoCluster) return;
    id = Merge(id, best);
  }
}

uint32_t BucketClusterer::Merge(uint32_t a, uint32_t b) {
  if (clusters_[a].buckets < clusters_[b].buckets) std::swap(a, b);
  Cluster& keep = clusters_[a];
  Cluster& gone = clusters_[b];
  // Relabel gone's box, last dimension fastest.
  const int dims = grid_.dims();
  CellCoord coord = gone.lo;
  while (true) {
    labels_[Index(coord)] = a;
    int d = dims - 1;
    while (d >= 0 && ++coord.c[d] > gone.hi.c[d]) {
      coord.c[d] = gone.lo.c[d];
      --d;
    }
    if (d < 0) break;
  }
  keep.af = AggregateFeature::Merge(keep.af, gone.af);
  keep.buckets += gone.buckets;
  for (int d = 0; d < dims; ++d) {
    keep.lo.c[d] = std::min(keep.lo.c[d], gone.lo.c[d]);
    keep.hi.c[d] = std::max(keep.hi.c[d], gone.hi.c[d]);
  }
  gone.buckets = 0;
  free_.push_back(b);
  --num_live_;
  return a;
}

std::vector<AggregateFeature> BucketClusterer::Clusters() const {
  std::vector<const Cluster*> live;
  live.reserve(num_live_);
  for (const Cluster& cluster : clusters_) {
    if (cluster.buckets > 0) live.push_back(&cluster);
  }
  std::sort(live.begin(), live.end(), [](const Cluster* a, const Cluster* b) {
    return CellCoordLess{}(a->lo, b->lo);
  });
  std::vector<AggregateFeature> out;
  out.reserve(live.size());
  for (const Cluster* cluster : live) out.push_back(cluster->af);
  return out;
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
  const DshcThresholds thresholds = ResolveThresholds(sketch, options);
  BucketClusterer clusterer(
      grid, MergingCriteria{.t_diff = thresholds.t_diff,
                            .t_max_points = thresholds.t_max_points,
                            .cost_fn = ClusterCostFn(dims, options.detection),
                            .t_max_cost = thresholds.t_max_cost});

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
    clusterer.InsertBucket(coord, grid.WeightAt(coord) * scale);
  }
  return clusterer.Clusters();
}

}  // namespace dod
