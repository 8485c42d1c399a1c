// Copyright 2026 The DOD Authors.

#include "common/dataset.h"

#include <cmath>
#include <string>

namespace dod {

void Dataset::AppendAll(const Dataset& other) {
  DOD_CHECK(other.dims() == dims_);
  coords_.insert(coords_.end(), other.coords_.begin(), other.coords_.end());
}

Rect Dataset::Bounds() const {
  DOD_CHECK(!empty());
  BoundsAccumulator acc(dims_);
  for (size_t i = 0; i < size(); ++i) acc.Add((*this)[static_cast<PointId>(i)]);
  return acc.bounds();
}

Status Dataset::Validate() const {
  const size_t n = size();
  for (size_t i = 0; i < n; ++i) {
    const double* p = (*this)[static_cast<PointId>(i)];
    for (int d = 0; d < dims_; ++d) {
      if (!std::isfinite(p[d])) {
        return Status::InvalidArgument(
            "non-finite coordinate at point " + std::to_string(i) +
            ", dimension " + std::to_string(d) + ": " + std::to_string(p[d]));
      }
    }
  }
  return Status::Ok();
}

}  // namespace dod
