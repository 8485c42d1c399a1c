// Copyright 2026 The DOD Authors.
//
// Flat, cache-friendly point storage. A Dataset owns `size() * dims()`
// doubles laid out row-major; points are referred to by PointId. This is the
// unit that flows through generators, the MapReduce engine, partitioners and
// detectors.

#ifndef DOD_COMMON_DATASET_H_
#define DOD_COMMON_DATASET_H_

#include <cstddef>
#include <vector>

#include "common/bounds.h"
#include "common/point.h"
#include "common/status.h"

namespace dod {

// How many points ahead a loop over scattered ids prefetches. Inputs come
// in random order (a BlockStore permutation), so each `data[id]` read in
// such a loop is a cache miss; requesting the point this many iterations
// before its use overlaps the misses. 8, 16 and 32 were measured on the
// routing and arena micro-benchmarks (EXPERIMENTS.md, "Partition
// routing").
inline constexpr size_t kPrefetchLookahead = 16;

class Dataset {
 public:
  // An empty dataset of `dims`-dimensional points.
  explicit Dataset(int dims) : dims_(dims) {
    DOD_CHECK(dims >= 1 && dims <= kMaxDimensions);
  }

  int dims() const { return dims_; }
  size_t size() const { return coords_.size() / dims_; }
  bool empty() const { return coords_.empty(); }

  void Reserve(size_t n) { coords_.reserve(n * dims_); }

  // Appends a point; returns its id.
  PointId Append(const double* p) {
    coords_.insert(coords_.end(), p, p + dims_);
    return static_cast<PointId>(size() - 1);
  }
  PointId Append(const Point& p) {
    DOD_CHECK(p.dims() == dims_);
    return Append(p.data());
  }

  // Appends all points of `other` (same dimensionality).
  void AppendAll(const Dataset& other);

  // Coordinate array of point `id`; valid until the next mutation.
  const double* operator[](PointId id) const {
    return coords_.data() + static_cast<size_t>(id) * dims_;
  }

  // Asks the cache for point `id`'s coordinates ahead of a read. A point is
  // at most kMaxDimensions doubles (one cache line), so requesting its first
  // and last coordinate covers both lines when it straddles a boundary.
  void Prefetch(PointId id) const {
    const double* p = (*this)[id];
    __builtin_prefetch(p);
    __builtin_prefetch(p + dims_ - 1);
  }

  // Copy of point `id` as a value type.
  Point GetPoint(PointId id) const { return Point((*this)[id], dims_); }

  // Bounding box of all points. Must not be called on an empty dataset.
  Rect Bounds() const;

  // Rejects non-finite coordinates (NaN, ±inf) with kInvalidArgument naming
  // the first offending point and dimension. Grid partitioning and the
  // distance kernels assume finite coordinates; a NaN smuggled in through
  // I/O would silently poison cell assignment and neighbor counts, so the
  // loaders validate every dataset they return.
  Status Validate() const;

  // Raw storage access (used by I/O and the MapReduce serializer).
  const std::vector<double>& raw() const { return coords_; }
  std::vector<double>& mutable_raw() { return coords_; }

  void Clear() { coords_.clear(); }

 private:
  int dims_;
  std::vector<double> coords_;
};

}  // namespace dod

#endif  // DOD_COMMON_DATASET_H_
