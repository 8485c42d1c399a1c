// Copyright 2026 The DOD Authors.
//
// Blocked structure-of-arrays coordinate buffer: points are stored in
// fixed-width blocks of kSoaWidth slots, with each dimension's coordinates
// contiguous inside a block ("lanes"). The layout lets the distance kernels
// evaluate one query against kSoaWidth candidates with unit-stride loads —
// the data-level parallelism complement to the thread-level parallelism of
// src/runtime/.
//
//   block 0: [x0..x7][y0..y7]...  block 1: [x8..x15][y8..y15]...
//
// Tail blocks are padded: pad slots carry +infinity coordinates (their
// squared distance to any finite query is +infinity, so threshold kernels
// ignore them with no masking) and the kSoaInvalidId sentinel, which no
// real point id can take.
//
// Shadow lanes (optional, EnableShadow): a float32 copy of the coordinates
// of a slot range, shifted by one origin `o` per buffer and stored as
// fl32(x[d] - o[d]) with the subtraction done in double. They go
// kShadowWidth = 16 slots (two blocks) per lane, so one 16-float zmm vector
// covers blocks 2v and 2v + 1:
//
//   vector 0: [x0..x15][y0..y15]...  vector 1: [x16..x31][y16..y31]...
//
// FillShadow writes them for one range at a time, on demand (a task arena
// fills a cell's probe segment when a detector first reads it), and the
// first range filled fixes `o` at its first point. The buffer keeps the
// extent E = max |x[d] - o[d]| (as computed in double) over every filled
// slot and dimension, which bounds the float rounding error (see the
// avx512 count). A range is filled only when every |x[d] - o[d]| in it is
// finite and <= FLT_MAX; ShadowCovers tells a kernel whether a slot range
// lies inside one filled range, and kernels fall back to the double lanes
// wherever it does not, so the lanes are a pure speed hint.

#ifndef DOD_KERNELS_SOA_BLOCK_H_
#define DOD_KERNELS_SOA_BLOCK_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <vector>

#include "common/bounds.h"
#include "common/dataset.h"

namespace dod {

// Slots per block. Eight doubles = two AVX2 vectors = one cache line per
// dimension lane.
inline constexpr size_t kSoaWidth = 8;

// Id carried by pad slots (a Dataset can never hold 2^32 - 1 points).
inline constexpr uint32_t kSoaInvalidId = 0xFFFFFFFFu;

// Coordinate carried by pad slots.
inline constexpr double kSoaPadCoordinate =
    std::numeric_limits<double>::infinity();

// Slots per shadow vector: two blocks, one 16-float zmm per dimension.
inline constexpr size_t kShadowWidth = 2 * kSoaWidth;

class SoABlock {
 public:
  explicit SoABlock(int dims);

  int dims() const { return dims_; }
  // Logical number of points (pad slots excluded).
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t num_blocks() const {
    return coords_.size() / (static_cast<size_t>(dims_) * kSoaWidth);
  }

  // Drops all points and shadow lanes; keeps capacity, dimensionality and
  // whether the buffer takes shadow lanes.
  void Clear() {
    coords_.clear();
    ids_.clear();
    size_ = 0;
    ReleaseShadow();
  }

  void Reserve(size_t n);

  // Heap bytes a buffer of `dims` dimensions holds for `n` slots: what
  // Reserve(n) allocates plus, with `shadow`, the shadow lanes of n slots.
  static uint64_t ReservedBytes(size_t n, int dims, bool shadow);

  // Heap bytes the buffer holds (capacities, not sizes).
  uint64_t CapacityBytes() const;

  // Appends one point with an arbitrary caller-chosen id (read back with
  // IdAt, e.g. the window slot a streaming tile row belongs to).
  void Append(const double* p, uint32_t id);

  // Appends `n` points gathered from `data` in one pass: the j-th new slot
  // holds point `ids[order[j]]` and carries id `order[j]` (a local index).
  // Sizes the buffer once and prefetches kPrefetchLookahead points ahead,
  // since `ids` are scattered over `data`. Same slots as n calls to Append.
  void AppendGathered(const Dataset& data, const PointId* ids,
                      const uint32_t* order, size_t n);

  // Rebuilds the buffer from a whole dataset; slot j holds point j.
  void Assign(const Dataset& points);

  // Rounds size() up to the next block boundary — the next shadow vector
  // boundary when the buffer takes shadow lanes; the skipped slots are
  // pads. Lets several independent point segments share one buffer with
  // each segment starting on a block (or vector) boundary (per-cell probe
  // segments of a task arena).
  void AlignToBlock();

  // Coordinates of dimension `dim` for the kSoaWidth slots of `block`.
  const double* Lane(size_t block, int dim) const {
    return coords_.data() + (block * dims_ + static_cast<size_t>(dim)) *
                                kSoaWidth;
  }

  // Id of `slot` (pad slots: kSoaInvalidId).
  uint32_t IdAt(size_t slot) const { return ids_[slot]; }

  // Bounding box of the points in slots [begin, end), read from the double
  // lanes in slot order. The range must be non-empty, inside size() and
  // free of pad slots (a task arena's probe segment).
  Rect Bounds(size_t begin, size_t end) const;

  // Lets FillShadow write shadow lanes. Must be called on an empty buffer.
  void EnableShadow();
  bool takes_shadow() const { return shadow_; }

  // Writes the shadow lanes of slots [begin, end) from their double lanes;
  // `begin` must sit on a shadow vector boundary, and the slots from `end`
  // to the next one get pad values. Leaves the range uncovered when one of
  // its coordinates does not fit. Appending after the first fill releases
  // every shadow lane.
  void FillShadow(size_t begin, size_t end);

  // True iff [begin, end) is non-empty and lies inside one filled range.
  bool ShadowCovers(size_t begin, size_t end) const {
    return begin < end && begin / kShadowWidth < shadow_until_.size() &&
           end <= shadow_until_[begin / kShadowWidth];
  }

  // Shadow coordinates of dimension `dim` for the kShadowWidth slots of
  // shadow vector `vec` (slots [16 vec, 16 vec + 16)). Only meaningful in
  // a covered range.
  const float* ShadowLane(size_t vec, int dim) const {
    return shadow_lanes_.get() +
           (vec * dims_ + static_cast<size_t>(dim)) * kShadowWidth;
  }

  // The origin o (dims() doubles) and the extent E of the shadow lanes.
  const double* shadow_origin() const { return shadow_origin_; }
  double shadow_extent() const { return shadow_extent_; }

 private:
  void ReleaseShadow();

  int dims_;
  size_t size_ = 0;
  std::vector<double> coords_;
  std::vector<uint32_t> ids_;
  // Frees shadow lanes allocated on a cache-line boundary.
  struct AlignedDelete {
    void operator()(float* p) const {
      ::operator delete[](p, std::align_val_t{kShadowAlignment});
    }
  };
  static constexpr size_t kShadowAlignment = 64;

  bool shadow_ = false;
  // Allocated, uninitialized and cache-line aligned (a lane row is one
  // line), by the first FillShadow for every block the buffer then holds;
  // only filled ranges are ever written or read.
  std::unique_ptr<float[], AlignedDelete> shadow_lanes_;
  size_t shadow_floats_ = 0;
  // Per shadow vector: the end slot of the filled range holding it (0 when
  // unfilled).
  std::vector<uint32_t> shadow_until_;
  double shadow_origin_[kMaxDimensions] = {};
  double shadow_extent_ = 0.0;
};

}  // namespace dod

#endif  // DOD_KERNELS_SOA_BLOCK_H_
