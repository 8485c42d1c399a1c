// Copyright 2026 The DOD Authors.

#include "partition/minibucket.h"

#include <algorithm>
#include <cmath>

namespace dod {

MiniBucketGrid::MiniBucketGrid(const Rect& domain, int buckets_per_dim)
    : domain_(domain), buckets_per_dim_(buckets_per_dim) {
  DOD_CHECK(buckets_per_dim >= 1);
  for (int d = 0; d < domain.dims(); ++d) {
    sides_[d] = domain.Extent(d) / buckets_per_dim;
  }
}

CellCoord MiniBucketGrid::CoordOf(const double* p) const {
  CellCoord coord;
  coord.dims = dims();
  for (int d = 0; d < dims(); ++d) {
    int32_t i = 0;
    if (sides_[d] > 0.0) {
      i = static_cast<int32_t>(
          std::floor((p[d] - domain_.lo(d)) / sides_[d]));
    }
    coord.c[d] = std::clamp(i, 0, buckets_per_dim_ - 1);
  }
  return coord;
}

void MiniBucketGrid::Add(const double* p, double weight) {
  AddAt(CoordOf(p), weight);
}

void MiniBucketGrid::AddAt(const CellCoord& coord, double weight) {
  const uint32_t i = index_.FindOrInsert(coord, BucketKeys{&buckets_}, [&] {
    buckets_.push_back(Bucket{coord, 0.0});
    return static_cast<uint32_t>(buckets_.size() - 1);
  });
  buckets_[i].weight += weight;
  total_weight_ += weight;
}

double MiniBucketGrid::BoundaryAt(int d, int i) const {
  if (i <= 0) return domain_.lo(d);
  if (i >= buckets_per_dim_) return domain_.hi(d);
  return domain_.lo(d) + sides_[d] * i;
}

Rect MiniBucketGrid::BucketRect(const CellCoord& coord) const {
  Point lo(dims()), hi(dims());
  for (int d = 0; d < dims(); ++d) {
    lo[d] = BoundaryAt(d, coord.c[d]);
    hi[d] = BoundaryAt(d, coord.c[d] + 1);
  }
  return Rect(lo, hi);
}

void MiniBucketGrid::MergeFrom(const MiniBucketGrid& other) {
  DOD_CHECK(other.buckets_per_dim_ == buckets_per_dim_);
  DOD_CHECK(other.domain_ == domain_);
  for (const Bucket& bucket : other.buckets_) {
    AddAt(bucket.coord, bucket.weight);
  }
}

PartitionStats RegionStats(const DistributionSketch& sketch,
                           const Rect& region) {
  PartitionStats stats;
  stats.dims = sketch.grid.dims();
  stats.area = region.Area();
  double weight = 0.0;
  for (const MiniBucketGrid::Bucket& bucket : sketch.grid.buckets()) {
    const Point center = sketch.grid.BucketRect(bucket.coord).Center();
    if (region.Contains(center)) weight += bucket.weight;
  }
  stats.cardinality = static_cast<size_t>(weight * sketch.Scale() + 0.5);
  return stats;
}

}  // namespace dod
