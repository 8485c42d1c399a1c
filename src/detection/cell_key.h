// Copyright 2026 The DOD Authors.
//
// Shared grid-cell keying: the integer cell address type, the uniform
// floor((p - origin) / side) assignment used everywhere a point is hashed
// into a grid cell, and the one hash index from cell coordinates to cell
// ids (CellIndex) that every grid looks its cells up through.
//
// Both the batch Cell-Based detector's SparseGrid (detection/grid.h) and
// the streaming detector's dirty-cell tracker (streaming/) key cells this
// way, and the two must never drift: the streaming service re-detects
// exactly the cells a batch run would have assigned the same coordinates
// to, and a divergent rounding or hashing choice would silently re-detect
// the wrong neighborhoods. Keeping the formula, the hash and the index in
// one header (with a pinning test in tests/streaming_test.cc) makes the
// sharing structural instead of coincidental.

#ifndef DOD_DETECTION_CELL_KEY_H_
#define DOD_DETECTION_CELL_KEY_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

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

// Lexicographic order over coordinates; the deterministic order for state
// kept in hashed cell indexes, whose slot order is arbitrary.
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

// Open-addressing hash index from cell coordinates to cell ids, shared by
// SparseGrid, MiniBucketGrid and the streaming detector. The ids are the
// caller's (dense indices into its own per-cell arrays) and so are the
// keys: every operation takes `key_of`, a callable mapping a stored id to
// its coordinate, so the table itself holds one uint32_t per slot.
//
// Probing: FNV-1a (CellCoordHash) times the 64-bit Fibonacci constant,
// whose high bits pick the home slot of a power-of-two table; collisions
// probe linearly. The table doubles before an insert would push the load
// past ½, so a table sized for `expected` cells never grows while it
// holds at most that many. Erase shifts the following entries of the
// probe run back into the hole (no tombstones), so a long-running caller
// that inserts and erases cells keeps short probe runs forever.
//
// Nothing here depends on the table order: callers iterate their own id
// arrays, never slots.
class CellIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  // A table of capacity bit_ceil(max(16, 2 * expected)).
  explicit CellIndex(size_t expected = 0) {
    Reset(std::bit_ceil(std::max<size_t>(16, 2 * expected)));
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return table_.size(); }

  // The slot a probe for `coord` starts at.
  size_t HomeSlot(const CellCoord& coord) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(CellCoordHash{}(coord)) *
         0x9E3779B97F4A7C15ULL) >>
        shift_);
  }

  // Id stored for `coord`, or kNone.
  template <typename KeyOf>
  uint32_t Find(const CellCoord& coord, const KeyOf& key_of) const {
    return table_[SlotFor(coord, key_of)];
  }

  // Id stored for `coord`; when absent, stores `new_id()` and returns it.
  // new_id must return an id not in the index and leave key_of(id) ==
  // coord from then on.
  template <typename KeyOf, typename NewId>
  uint32_t FindOrInsert(const CellCoord& coord, const KeyOf& key_of,
                        NewId&& new_id) {
    size_t slot = SlotFor(coord, key_of);
    if (table_[slot] != kNone) return table_[slot];
    if (2 * (size_ + 1) > table_.size()) {
      Grow(key_of);
      slot = SlotFor(coord, key_of);
    }
    const uint32_t id = new_id();
    table_[slot] = id;
    ++size_;
    return id;
  }

  // Removes `coord` and returns its id, or returns kNone when absent.
  template <typename KeyOf>
  uint32_t Erase(const CellCoord& coord, const KeyOf& key_of) {
    size_t hole = SlotFor(coord, key_of);
    const uint32_t id = table_[hole];
    if (id == kNone) return kNone;
    const size_t mask = table_.size() - 1;
    // An entry may move back into the hole iff the hole lies on its probe
    // path, i.e. between its home slot and its slot (cyclically).
    for (size_t slot = (hole + 1) & mask; table_[slot] != kNone;
         slot = (slot + 1) & mask) {
      const size_t home = HomeSlot(key_of(table_[slot]));
      if (((slot - home) & mask) >= ((slot - hole) & mask)) {
        table_[hole] = table_[slot];
        hole = slot;
      }
    }
    table_[hole] = kNone;
    --size_;
    return id;
  }

 private:
  void Reset(size_t capacity) {
    table_.assign(capacity, kNone);
    shift_ = 64 - std::countr_zero(capacity);
    size_ = 0;
  }

  // The slot holding `coord`, or the empty slot ending its probe run.
  template <typename KeyOf>
  size_t SlotFor(const CellCoord& coord, const KeyOf& key_of) const {
    const size_t mask = table_.size() - 1;
    for (size_t slot = HomeSlot(coord);; slot = (slot + 1) & mask) {
      const uint32_t id = table_[slot];
      if (id == kNone || key_of(id) == coord) return slot;
    }
  }

  template <typename KeyOf>
  void Grow(const KeyOf& key_of) {
    std::vector<uint32_t> old = std::move(table_);
    const size_t size = size_;
    Reset(2 * old.size());
    const size_t mask = table_.size() - 1;
    for (uint32_t id : old) {
      if (id == kNone) continue;
      size_t slot = HomeSlot(key_of(id));
      while (table_[slot] != kNone) slot = (slot + 1) & mask;
      table_[slot] = id;
    }
    size_ = size;
  }

  // Cell ids (kNone when free); the capacity is a power of two.
  std::vector<uint32_t> table_;
  int shift_ = 0;
  size_t size_ = 0;
};

}  // namespace dod

#endif  // DOD_DETECTION_CELL_KEY_H_
