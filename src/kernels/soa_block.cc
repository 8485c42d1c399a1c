// Copyright 2026 The DOD Authors.

#include "kernels/soa_block.h"

#include <algorithm>
#include <cfloat>
#include <cmath>

namespace dod {
namespace {

constexpr float kShadowPad = std::numeric_limits<float>::infinity();

size_t BlocksFor(size_t n) { return (n + kSoaWidth - 1) / kSoaWidth; }

size_t VectorsFor(size_t n) { return (n + kShadowWidth - 1) / kShadowWidth; }

// fl32(x - origin), with x - origin clamped into float range first so the
// conversion is always defined (NaN stays NaN); sets *fits to false when
// the clamp changed the value or it is NaN. Branch-free, so the callers'
// slot loops vectorize.
inline float Shift(double x, double origin, bool* fits, double* extent) {
  const double shifted = x - origin;
  const double magnitude = std::fabs(shifted);
  *fits &= magnitude <= FLT_MAX;
  *extent = std::max(*extent, magnitude);
  return static_cast<float>(
      std::min(std::max(shifted, -double{FLT_MAX}), double{FLT_MAX}));
}

}  // namespace

SoABlock::SoABlock(int dims) : dims_(dims) {
  DOD_CHECK(dims >= 1 && dims <= kMaxDimensions);
}

void SoABlock::Reserve(size_t n) {
  const size_t blocks = BlocksFor(n);
  coords_.reserve(blocks * static_cast<size_t>(dims_) * kSoaWidth);
  ids_.reserve(blocks * kSoaWidth);
}

uint64_t SoABlock::ReservedBytes(size_t n, int dims, bool shadow) {
  const uint64_t lanes = static_cast<uint64_t>(dims);
  uint64_t bytes = static_cast<uint64_t>(BlocksFor(n)) * kSoaWidth *
                   (lanes * sizeof(double) + sizeof(uint32_t));
  if (shadow) {
    bytes += static_cast<uint64_t>(VectorsFor(n)) *
             (kShadowWidth * lanes * sizeof(float) + sizeof(uint32_t));
  }
  return bytes;
}

uint64_t SoABlock::CapacityBytes() const {
  return coords_.capacity() * sizeof(double) +
         ids_.capacity() * sizeof(uint32_t) + shadow_floats_ * sizeof(float) +
         shadow_until_.capacity() * sizeof(uint32_t);
}

Rect SoABlock::Bounds(size_t begin, size_t end) const {
  DOD_CHECK(begin < end && end <= size_);
  Point lo(dims_), hi(dims_);
  for (int d = 0; d < dims_; ++d) {
    double min = Lane(begin / kSoaWidth, d)[begin % kSoaWidth];
    double max = min;
    for (size_t block = begin / kSoaWidth; block * kSoaWidth < end;
         ++block) {
      const size_t base = block * kSoaWidth;
      const double* lane = Lane(block, d);
      const size_t last = std::min(end, base + kSoaWidth) - base;
      for (size_t s = std::max(begin, base) - base; s < last; ++s) {
        min = std::min(min, lane[s]);
        max = std::max(max, lane[s]);
      }
    }
    lo[d] = min;
    hi[d] = max;
  }
  return Rect(lo, hi);
}

void SoABlock::EnableShadow() {
  DOD_CHECK(size_ == 0);
  shadow_ = true;
}

void SoABlock::ReleaseShadow() {
  shadow_lanes_.reset();
  shadow_floats_ = 0;
  std::vector<uint32_t>().swap(shadow_until_);
  shadow_extent_ = 0.0;
}

void SoABlock::AlignToBlock() {
  const size_t width = shadow_ ? kShadowWidth : kSoaWidth;
  const size_t aligned = (size_ + width - 1) / width * width;
  if (aligned > num_blocks() * kSoaWidth) {
    if (shadow_lanes_) ReleaseShadow();
    coords_.resize(coords_.size() + static_cast<size_t>(dims_) * kSoaWidth,
                   kSoaPadCoordinate);
    ids_.resize(ids_.size() + kSoaWidth, kSoaInvalidId);
  }
  size_ = aligned;
}

void SoABlock::Append(const double* p, uint32_t id) {
  if (shadow_lanes_) ReleaseShadow();
  const size_t slot = size_ % kSoaWidth;
  if (slot == 0) {
    // Open a fresh block, fully padded; real slots overwrite below.
    coords_.resize(coords_.size() + static_cast<size_t>(dims_) * kSoaWidth,
                   kSoaPadCoordinate);
    ids_.resize(ids_.size() + kSoaWidth, kSoaInvalidId);
  }
  const size_t block = size_ / kSoaWidth;
  double* base =
      coords_.data() + block * static_cast<size_t>(dims_) * kSoaWidth;
  for (int d = 0; d < dims_; ++d) {
    base[static_cast<size_t>(d) * kSoaWidth + slot] = p[d];
  }
  ids_[size_] = id;
  ++size_;
}

void SoABlock::AppendGathered(const Dataset& data, const PointId* ids,
                              const uint32_t* order, size_t n) {
  DOD_CHECK(data.dims() == dims_);
  if (shadow_lanes_) ReleaseShadow();
  const size_t block_doubles = static_cast<size_t>(dims_) * kSoaWidth;
  const size_t blocks = BlocksFor(size_ + n);
  // New blocks open fully padded; real slots overwrite below.
  coords_.resize(blocks * block_doubles, kSoaPadCoordinate);
  ids_.resize(blocks * kSoaWidth, kSoaInvalidId);
  for (size_t j = 0; j < n; ++j) {
    if (j + kPrefetchLookahead < n) {
      data.Prefetch(ids[order[j + kPrefetchLookahead]]);
    }
    const size_t slot = size_ + j;
    const double* p = data[ids[order[j]]];
    double* base = coords_.data() + (slot / kSoaWidth) * block_doubles +
                   slot % kSoaWidth;
    for (int d = 0; d < dims_; ++d) {
      base[static_cast<size_t>(d) * kSoaWidth] = p[d];
    }
    ids_[slot] = order[j];
  }
  size_ += n;
}

void SoABlock::FillShadow(size_t begin, size_t end) {
  DOD_CHECK(shadow_ && begin % kShadowWidth == 0 && begin <= end &&
            end <= size_ && end <= UINT32_MAX);
  if (begin == end) return;
  if (!shadow_lanes_) {
    // Every vector the buffer holds, left uninitialized: only filled
    // ranges are ever written or read.
    const size_t vectors = VectorsFor(num_blocks() * kSoaWidth);
    shadow_floats_ = vectors * static_cast<size_t>(dims_) * kShadowWidth;
    shadow_lanes_.reset(static_cast<float*>(::operator new[](
        shadow_floats_ * sizeof(float), std::align_val_t{kShadowAlignment})));
    shadow_until_.assign(vectors, 0);
    for (int d = 0; d < dims_; ++d) {
      shadow_origin_[d] = Lane(begin / kSoaWidth, d)[0];
    }
  }
  bool fits = true;
  double extent = 0.0;
  // Whole vectors: slots past `end` (up to the vector's end, including a
  // high block the buffer does not hold) get the pad value.
  const size_t end_block = 2 * VectorsFor(end);
  for (size_t block = begin / kSoaWidth; block < end_block; ++block) {
    const size_t base = block * kSoaWidth;
    const size_t in_range = base < end ? std::min(end - base, kSoaWidth) : 0;
    for (int d = 0; d < dims_; ++d) {
      float* shadow = shadow_lanes_.get() +
                      ((block / 2) * dims_ + static_cast<size_t>(d)) *
                          kShadowWidth +
                      (block % 2) * kSoaWidth;
      const double origin = shadow_origin_[d];
      if (in_range == kSoaWidth) {
        const double* lane = Lane(block, d);
        for (size_t s = 0; s < kSoaWidth; ++s) {
          shadow[s] = Shift(lane[s], origin, &fits, &extent);
        }
        continue;
      }
      for (size_t s = 0; s < in_range; ++s) {
        shadow[s] = Shift(Lane(block, d)[s], origin, &fits, &extent);
      }
      for (size_t s = in_range; s < kSoaWidth; ++s) shadow[s] = kShadowPad;
    }
  }
  if (!fits) return;
  shadow_extent_ = std::max(shadow_extent_, extent);
  for (size_t v = begin / kShadowWidth; v < VectorsFor(end); ++v) {
    shadow_until_[v] = static_cast<uint32_t>(end);
  }
}

void SoABlock::Assign(const Dataset& points) {
  DOD_CHECK(points.dims() == dims_);
  Clear();
  Reserve(points.size());
  for (uint32_t i = 0; i < points.size(); ++i) Append(points[i], i);
}

}  // namespace dod
