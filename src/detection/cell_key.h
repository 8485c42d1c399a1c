// Copyright 2026 The DOD Authors.
//
// Shared grid-cell keying: the integer cell address type and the uniform
// floor((p - origin) / side) assignment used everywhere a point is hashed
// into a grid cell.
//
// Both the batch Cell-Based detector's SparseGrid (detection/grid.h) and
// the streaming detector's dirty-cell tracker (streaming/) key cells this
// way, and the two must never drift: the streaming service re-detects
// exactly the cells a batch run would have assigned the same coordinates
// to, and a divergent rounding or hashing choice would silently re-detect
// the wrong neighborhoods. Keeping the formula and the hash in one header
// (with a pinning test in tests/streaming_test.cc) makes the sharing
// structural instead of coincidental.

#ifndef DOD_DETECTION_CELL_KEY_H_
#define DOD_DETECTION_CELL_KEY_H_

#include <cmath>
#include <cstdint>

#include "common/point.h"

namespace dod {

// Integer cell address. Only the first `dims` entries are meaningful.
struct CellCoord {
  int32_t c[kMaxDimensions] = {0};
  int dims = 0;

  bool operator==(const CellCoord& other) const {
    if (dims != other.dims) return false;
    for (int i = 0; i < dims; ++i) {
      if (c[i] != other.c[i]) return false;
    }
    return true;
  }
};

struct CellCoordHash {
  size_t operator()(const CellCoord& coord) const {
    // FNV-1a over the used coordinates.
    uint64_t h = 1469598103934665603ULL;
    for (int i = 0; i < coord.dims; ++i) {
      h ^= static_cast<uint32_t>(coord.c[i]);
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

// Lexicographic order over coordinates; the deterministic iteration order
// for state kept in (unordered) cell maps.
struct CellCoordLess {
  bool operator()(const CellCoord& a, const CellCoord& b) const {
    for (int i = 0; i < a.dims; ++i) {
      if (a.c[i] != b.c[i]) return a.c[i] < b.c[i];
    }
    return false;
  }
};

// The uniform grid assignment: cell i of dimension d covers
// [origin[d] + i*side, origin[d] + (i+1)*side). `side` must be > 0.
inline double UniformCellIndex(double x, double origin, double side) {
  return std::floor((x - origin) / side);
}

inline CellCoord UniformCellKey(const double* p, int dims,
                                const double* origin, double side) {
  CellCoord coord;
  coord.dims = dims;
  for (int i = 0; i < dims; ++i) {
    coord.c[i] =
        static_cast<int32_t>(UniformCellIndex(p[i], origin[i], side));
  }
  return coord;
}

// Largest |cell index| a checked key accepts. Half the int32 range, so
// a block of ring offsets around any accepted key never overflows.
inline constexpr double kMaxCellIndex = 1 << 30;

// UniformCellKey that refuses instead of aliasing: returns false (leaving
// `out` unspecified) when some index lies outside ±kMaxCellIndex or is not
// a number, where the int32 conversion would fold distinct cells together.
inline bool TryUniformCellKey(const double* p, int dims, const double* origin,
                              double side, CellCoord* out) {
  out->dims = dims;
  for (int i = 0; i < dims; ++i) {
    const double index = UniformCellIndex(p[i], origin[i], side);
    if (!(std::fabs(index) <= kMaxCellIndex)) return false;
    out->c[i] = static_cast<int32_t>(index);
  }
  return true;
}

}  // namespace dod

#endif  // DOD_DETECTION_CELL_KEY_H_
