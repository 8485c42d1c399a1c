// Copyright 2026 The DOD Authors.
//
// Mini buckets (Sec. V-A, distribution estimation stage): the domain space
// is discretized into a fine uniform grid of "mini buckets" that form the
// unit of processing for the DMT planner. Sampled points are aggregated to
// per-bucket counts; every downstream planning decision (DSHC clustering,
// cost-driven bisection, algorithm selection) reads these statistics only.

#ifndef DOD_PARTITION_MINIBUCKET_H_
#define DOD_PARTITION_MINIBUCKET_H_

#include <vector>

#include "common/bounds.h"
#include "detection/cost_model.h"
#include "detection/grid.h"

namespace dod {

class MiniBucketGrid {
 public:
  struct Bucket {
    CellCoord coord;
    double weight = 0.0;
  };

  // `buckets_per_dim` buckets along every dimension of `domain`.
  MiniBucketGrid(const Rect& domain, int buckets_per_dim);

  const Rect& domain() const { return domain_; }
  int dims() const { return domain_.dims(); }
  int buckets_per_dim() const { return buckets_per_dim_; }

  // Side length of a bucket along dimension `d`.
  double side(int d) const { return sides_[d]; }

  // Bucket coordinate of point `p` (clamped into the grid).
  CellCoord CoordOf(const double* p) const;

  void Add(const double* p, double weight = 1.0);

  // Adds `weight` directly to the bucket at `coord`.
  void AddAt(const CellCoord& coord, double weight);

  // All non-empty buckets.
  const std::vector<Bucket>& buckets() const { return buckets_; }

  // Weight of the bucket at `coord`; 0 when never touched.
  double WeightAt(const CellCoord& coord) const {
    const uint32_t i = index_.Find(coord, BucketKeys{&buckets_});
    return i == CellIndex::kNone ? 0.0 : buckets_[i].weight;
  }

  double TotalWeight() const { return total_weight_; }

  // Exact real-space boundary of bucket index `i` along dimension `d`
  // (i in [0, buckets_per_dim]). Index 0 and buckets_per_dim map exactly to
  // the domain boundary so that bucket-aligned partitions tile the domain.
  double BoundaryAt(int d, int i) const;

  // Real-space rect of the bucket at `coord`.
  Rect BucketRect(const CellCoord& coord) const;

  // Merges another grid's buckets (same domain/resolution) into this one —
  // the reduce-side aggregation of distributed sampling.
  void MergeFrom(const MiniBucketGrid& other);

 private:
  // CellIndex key accessor: bucket i's coordinate.
  struct BucketKeys {
    const std::vector<Bucket>* buckets;
    const CellCoord& operator()(uint32_t i) const {
      return (*buckets)[i].coord;
    }
  };

  Rect domain_;
  int buckets_per_dim_;
  double sides_[kMaxDimensions] = {0.0};
  // Non-empty buckets in first-touch order, indexed by coordinate.
  std::vector<Bucket> buckets_;
  CellIndex index_;
  double total_weight_ = 0.0;
};

// A sampled estimate of the data distribution: mini-bucket counts from a
// Bernoulli sample at `sampling_rate` (paper default Υ = 0.5 %).
struct DistributionSketch {
  MiniBucketGrid grid;
  double sampling_rate = 0.005;
  // Raw number of sampled points in `grid`.
  size_t sample_size = 0;

  // Multiplier converting sampled counts to full-data estimates.
  double Scale() const { return sampling_rate > 0 ? 1.0 / sampling_rate : 1.0; }

  // Estimated full-data cardinality.
  double EstimatedCardinality() const { return sample_size * Scale(); }
};

// Planner view of a region: estimated cardinality (scaled), area, dims.
// Buckets are attributed to the region by their center.
PartitionStats RegionStats(const DistributionSketch& sketch,
                           const Rect& region);

}  // namespace dod

#endif  // DOD_PARTITION_MINIBUCKET_H_
