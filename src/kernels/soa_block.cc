// Copyright 2026 The DOD Authors.

#include "kernels/soa_block.h"

namespace dod {

SoABlock::SoABlock(int dims) : dims_(dims) {
  DOD_CHECK(dims >= 1 && dims <= kMaxDimensions);
}

void SoABlock::Reserve(size_t n) {
  const size_t blocks = (n + kSoaWidth - 1) / kSoaWidth;
  coords_.reserve(blocks * static_cast<size_t>(dims_) * kSoaWidth);
  ids_.reserve(blocks * kSoaWidth);
}

void SoABlock::Append(const double* p, uint32_t id) {
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
  const size_t block_doubles = static_cast<size_t>(dims_) * kSoaWidth;
  const size_t blocks = (size_ + n + kSoaWidth - 1) / kSoaWidth;
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

void SoABlock::Assign(const Dataset& points) {
  DOD_CHECK(points.dims() == dims_);
  Clear();
  Reserve(points.size());
  for (uint32_t i = 0; i < points.size(); ++i) Append(points[i], i);
}

}  // namespace dod
