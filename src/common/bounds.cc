// Copyright 2026 The DOD Authors.

#include "common/bounds.h"

#include <algorithm>

namespace dod {

Rect Rect::Cube(int dims, double lo, double hi) {
  DOD_CHECK(lo <= hi);
  Point min(dims), max(dims);
  for (int i = 0; i < dims; ++i) {
    min[i] = lo;
    max[i] = hi;
  }
  return Rect(min, max);
}

double Rect::Area() const {
  if (empty()) return 0.0;
  double area = 1.0;
  for (int i = 0; i < dims(); ++i) area *= Extent(i);
  return area;
}

Point Rect::Center() const {
  Point c(dims());
  for (int i = 0; i < dims(); ++i) c[i] = 0.5 * (min_[i] + max_[i]);
  return c;
}

bool Rect::Contains(const double* p) const {
  for (int i = 0; i < dims(); ++i) {
    if (p[i] < min_[i] || p[i] > max_[i]) return false;
  }
  return dims() > 0;
}

bool Rect::Covers(const Rect& other) const {
  DOD_CHECK(dims() == other.dims());
  for (int i = 0; i < dims(); ++i) {
    if (other.min_[i] < min_[i] || other.max_[i] > max_[i]) return false;
  }
  return true;
}

Rect Rect::Expanded(double margin) const {
  Point lo(dims()), hi(dims());
  for (int i = 0; i < dims(); ++i) {
    lo[i] = min_[i] - margin;
    hi[i] = max_[i] + margin;
  }
  return Rect(lo, hi);
}

Rect Rect::UnionWith(const Rect& other) const {
  if (empty()) return other;
  if (other.empty()) return *this;
  DOD_CHECK(dims() == other.dims());
  Point lo(dims()), hi(dims());
  for (int i = 0; i < dims(); ++i) {
    lo[i] = std::min(min_[i], other.min_[i]);
    hi[i] = std::max(max_[i], other.max_[i]);
  }
  return Rect(lo, hi);
}

Rect Rect::UnionWith(const Point& p) const {
  if (empty()) return Rect(p, p);
  DOD_CHECK(dims() == p.dims());
  Point lo(dims()), hi(dims());
  for (int i = 0; i < dims(); ++i) {
    lo[i] = std::min(min_[i], p[i]);
    hi[i] = std::max(max_[i], p[i]);
  }
  return Rect(lo, hi);
}

std::string Rect::ToString() const {
  return "[" + min_.ToString() + " .. " + max_.ToString() + "]";
}

BoundsAccumulator::BoundsAccumulator(int dims)
    : dims_(dims), min_(dims), max_(dims) {}

void BoundsAccumulator::Add(const double* p) {
  if (count_ == 0) {
    for (int i = 0; i < dims_; ++i) {
      min_[i] = p[i];
      max_[i] = p[i];
    }
  } else {
    for (int i = 0; i < dims_; ++i) {
      min_[i] = std::min(min_[i], p[i]);
      max_[i] = std::max(max_[i], p[i]);
    }
  }
  ++count_;
}

Rect BoundsAccumulator::bounds() const {
  DOD_CHECK(count_ > 0);
  return Rect(min_, max_);
}

}  // namespace dod
