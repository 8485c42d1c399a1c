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
// squared distance to any finite query is +infinity, so threshold and
// minimum kernels ignore them with no masking) and the kSoaInvalidId
// sentinel, which no real point id can take.

#ifndef DOD_KERNELS_SOA_BLOCK_H_
#define DOD_KERNELS_SOA_BLOCK_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/dataset.h"

namespace dod {

// Slots per block. Eight doubles = two AVX2 vectors = one cache line per
// dimension lane.
inline constexpr size_t kSoaWidth = 8;

// Id carried by pad slots; also usable as a "skip nothing" sentinel for the
// kernels' skip_id parameter (a Dataset can never hold 2^32 - 1 points).
inline constexpr uint32_t kSoaInvalidId = 0xFFFFFFFFu;

// Coordinate carried by pad slots.
inline constexpr double kSoaPadCoordinate =
    std::numeric_limits<double>::infinity();

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

  // Drops all points; keeps capacity and dimensionality.
  void Clear() {
    coords_.clear();
    ids_.clear();
    size_ = 0;
  }

  void Reserve(size_t n);

  // Appends one point with an arbitrary caller-chosen id (used by the
  // kernels to skip self-matches and report range hits).
  void Append(const double* p, uint32_t id);

  // Rebuilds the buffer from a whole dataset; slot j holds point j.
  void Assign(const Dataset& points);

  // Rounds size() up to the next block boundary; the skipped slots keep
  // their pad coordinates/ids. Lets several independent point segments
  // share one buffer with each segment starting on a block boundary
  // (per-cell probe segments of a task arena).
  void AlignToBlock() { size_ = num_blocks() * kSoaWidth; }

  // Coordinates of dimension `dim` for the kSoaWidth slots of `block`.
  const double* Lane(size_t block, int dim) const {
    return coords_.data() + (block * dims_ + static_cast<size_t>(dim)) *
                                kSoaWidth;
  }

  // Ids of the kSoaWidth slots of `block` (pad slots: kSoaInvalidId).
  const uint32_t* Ids(size_t block) const {
    return ids_.data() + block * kSoaWidth;
  }

  uint32_t IdAt(size_t slot) const { return ids_[slot]; }

 private:
  int dims_;
  size_t size_ = 0;
  std::vector<double> coords_;
  std::vector<uint32_t> ids_;
};

}  // namespace dod

#endif  // DOD_KERNELS_SOA_BLOCK_H_
