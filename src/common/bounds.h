// Copyright 2026 The DOD Authors.
//
// Axis-aligned hyper-rectangles. Used for the domain space, grid cells
// (Def. 3.1), supporting areas (Def. 3.3), and DSHC cluster boxes.

#ifndef DOD_COMMON_BOUNDS_H_
#define DOD_COMMON_BOUNDS_H_

#include <string>

#include "common/point.h"

namespace dod {

// Closed hyper-rectangle [min, max] in `dims` dimensions. An "empty" rect
// (default constructed) has dims() == 0 and contains nothing; extending an
// empty rect with a point yields the degenerate rect at that point.
class Rect {
 public:
  Rect() = default;

  Rect(const Point& min, const Point& max) : min_(min), max_(max) {
    DOD_CHECK(min.dims() == max.dims());
    for (int i = 0; i < min.dims(); ++i) DOD_CHECK(min[i] <= max[i]);
  }

  // Rect spanning [lo, hi] in every one of `dims` dimensions.
  static Rect Cube(int dims, double lo, double hi);

  int dims() const { return min_.dims(); }
  bool empty() const { return dims() == 0; }

  const Point& min() const { return min_; }
  const Point& max() const { return max_; }

  double lo(int dim) const { return min_[dim]; }
  double hi(int dim) const { return max_[dim]; }

  // Side length along `dim`.
  double Extent(int dim) const { return max_[dim] - min_[dim]; }

  // Product of extents (the "domain area" A(D) in the cost models). For a
  // degenerate rect this is 0.
  double Area() const;

  // Geometric center.
  Point Center() const;

  // Closed containment test: lo <= x <= hi in every dimension.
  bool Contains(const double* p) const;
  bool Contains(const Point& p) const { return Contains(p.data()); }

  // True iff `other` lies entirely within this rect (closed sense).
  bool Covers(const Rect& other) const;

  // Returns this rect expanded by `margin` in both directions of every
  // dimension — the supporting-area extension of Def. 3.3.
  Rect Expanded(double margin) const;

  // Smallest rect covering both this and `other`.
  Rect UnionWith(const Rect& other) const;

  // Smallest rect covering this rect and point `p`.
  Rect UnionWith(const Point& p) const;

  bool operator==(const Rect& other) const {
    return min_ == other.min_ && max_ == other.max_;
  }

  std::string ToString() const;

 private:
  Point min_;
  Point max_;
};

// Running bounding box accumulator used when scanning datasets.
class BoundsAccumulator {
 public:
  explicit BoundsAccumulator(int dims);

  void Add(const double* p);

  bool empty() const { return count_ == 0; }
  size_t count() const { return count_; }

  // Bounding box of all added points. Must not be called when empty.
  Rect bounds() const;

 private:
  int dims_;
  size_t count_ = 0;
  Point min_;
  Point max_;
};

}  // namespace dod

#endif  // DOD_COMMON_BOUNDS_H_
