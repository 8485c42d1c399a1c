// Copyright 2026 The DOD Authors.
//
// Distance kernels. The outlier definitions in the paper are metric-agnostic
// ("dist(p_i, p_j)"); the evaluation uses Euclidean distance on geospatial
// coordinates, which is the library default. Threshold tests compare squared
// distances to avoid the sqrt on the hot path.

#ifndef DOD_COMMON_DISTANCE_H_
#define DOD_COMMON_DISTANCE_H_

namespace dod {

// Squared L2 distance between two `dims`-dimensional coordinate arrays.
inline double SquaredEuclidean(const double* a, const double* b, int dims) {
  double sum = 0.0;
  for (int i = 0; i < dims; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

// True iff dist(a, b)² <= sq_radius (Def. 2.1 neighbor test with the square
// hoisted). Inner loops should compute radius * radius once and call this;
// WithinDistance below re-squares on every call and is kept for one-off
// tests.
inline bool WithinSquaredDistance(const double* a, const double* b, int dims,
                                  double sq_radius) {
  return SquaredEuclidean(a, b, dims) <= sq_radius;
}

// True iff dist(a, b) <= radius (Def. 2.1 neighbor test).
inline bool WithinDistance(const double* a, const double* b, int dims,
                           double radius) {
  return WithinSquaredDistance(a, b, dims, radius * radius);
}

}  // namespace dod

#endif  // DOD_COMMON_DISTANCE_H_
