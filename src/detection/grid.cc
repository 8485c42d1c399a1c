// Copyright 2026 The DOD Authors.

#include "detection/grid.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <limits>

namespace dod {

SparseGrid::SparseGrid(const Point& origin, double side, uint32_t num_points)
    : origin_(origin), side_(side), index_(num_points) {
  DOD_CHECK(side > 0.0);
  DOD_CHECK(origin.dims() >= 1);
}

CellCoord SparseGrid::CoordOf(const double* p) const {
  // One formula for every grid in the system (see detection/cell_key.h);
  // the streaming dirty-cell tracker keys cells through the same helper.
  return UniformCellKey(p, dims(), origin_.data(), side_);
}

void SparseGrid::Finish(const std::vector<uint32_t>& cell_of) {
  // offsets[c + 1] counts cell c, then prefix sums turn counts into starts;
  // scattering ids in ascending order keeps each cell's members ascending.
  std::vector<uint32_t> offsets(cells_.size() + 1, 0);
  for (uint32_t cell : cell_of) ++offsets[cell + 1];
  for (size_t c = 0; c < cells_.size(); ++c) offsets[c + 1] += offsets[c];
  members_.resize(cell_of.size());
  for (size_t c = 0; c < cells_.size(); ++c) {
    cells_[c].points = std::span<const uint32_t>(
        members_.data() + offsets[c], offsets[c + 1] - offsets[c]);
  }
  for (uint32_t i = 0; i < cell_of.size(); ++i) {
    members_[offsets[cell_of[i]]++] = i;
  }
}

void SparseGrid::Refuse() {
  fits_ = false;
  cells_ = {};
  index_ = CellIndex();
  members_ = {};
}

const SparseGrid::Cell* SparseGrid::Find(const CellCoord& coord) const {
  const uint32_t index = index_.Find(coord, CellKeys{&cells_});
  return index == CellIndex::kNone ? nullptr : &cells_[index];
}

namespace {

// (2·ring_radius+1)^dims, saturating at SIZE_MAX.
size_t BlockCells(int dims, int ring_radius) {
  const size_t side = 2 * static_cast<size_t>(ring_radius) + 1;
  size_t cells = 1;
  for (int d = 0; d < dims; ++d) {
    if (cells > std::numeric_limits<size_t>::max() / side) {
      return std::numeric_limits<size_t>::max();
    }
    cells *= side;
  }
  return cells;
}

// Chebyshev distance between two cells is <= ring_radius. Widened: cell
// indices span ±2^30, so a difference can overflow int32.
bool WithinRing(const CellCoord& a, const CellCoord& b, int ring_radius) {
  for (int d = 0; d < a.dims; ++d) {
    if (std::abs(int64_t{a.c[d]} - b.c[d]) > ring_radius) return false;
  }
  return true;
}

}  // namespace

size_t SparseGrid::CountBlock(const CellCoord& coord, int ring_radius) const {
  if (cells_.size() < BlockCells(coord.dims, ring_radius)) {
    size_t total = 0;
    for (const Cell& cell : cells_) {
      if (WithinRing(cell.coord, coord, ring_radius)) {
        total += cell.points.size();
      }
    }
    return total;
  }
  CellCoord probe;
  probe.dims = coord.dims;
  return ProbeBlock(coord, ring_radius, 0, &probe);
}

size_t SparseGrid::ProbeBlock(const CellCoord& center, int ring_radius,
                              int dim, CellCoord* probe) const {
  if (dim == center.dims) {
    const Cell* cell = Find(*probe);
    return cell == nullptr ? 0 : cell->points.size();
  }
  size_t total = 0;
  for (int off = -ring_radius; off <= ring_radius; ++off) {
    probe->c[dim] = center.c[dim] + off;
    total += ProbeBlock(center, ring_radius, dim + 1, probe);
  }
  return total;
}

bool CellCountTable::Accepts(const Rect& box, double side,
                             size_t num_points) {
  const double bound =
      static_cast<double>(kEntriesPerPoint) * static_cast<double>(num_points) +
      static_cast<double>(kEntrySlack);
  double entries = 1.0;
  for (int d = 0; d < box.dims(); ++d) {
    const double cells = UniformCellIndex(box.hi(d), box.lo(d), side) + 1.0;
    entries *= cells + 1.0;
    // Negated so a NaN extent refuses too; entries index by uint32.
    if (!(entries <= bound && entries <= UINT32_MAX)) return false;
  }
  return true;
}

CellCountTable::CellCountTable(const SoABlock& lanes, size_t begin,
                               size_t end, const Rect& box, double side)
    : dims_(lanes.dims()) {
  DOD_CHECK(side > 0.0 && box.dims() == dims_ && begin <= end);
  if (!Accepts(box, side, end - begin)) return;
  size_t entries = 1;
  for (int d = 0; d < dims_; ++d) {
    ext_[d] = static_cast<size_t>(
                  UniformCellIndex(box.hi(d), box.lo(d), side)) + 1;
    stride_[d] = entries;
    entries *= ext_[d] + 1;
  }
  sums_.assign(entries, 0);
  cell_of_.resize(end - begin);
  // Counts: each point's entry, one lane read per dimension in slot order.
  for (size_t slot = begin; slot < end; ++slot) {
    const size_t block = slot / kSoaWidth;
    const size_t lane = slot % kSoaWidth;
    size_t entry = 0;
    for (int d = 0; d < dims_; ++d) {
      const double c =
          UniformCellIndex(lanes.Lane(block, d)[lane], box.lo(d), side);
      if (!(c >= 0.0 && c < static_cast<double>(ext_[d]))) {
        sums_ = {};
        cell_of_ = {};
        num_cells_ = 0;
        return;
      }
      entry += (static_cast<size_t>(c) + 1) * stride_[d];
    }
    cell_of_[lanes.IdAt(slot)] = static_cast<uint32_t>(entry);
    if (sums_[entry]++ == 0) ++num_cells_;
  }
  // Summed-area table: one prefix-sum pass per dimension. Within a run of
  // (ext_d + 1) · stride_d entries, each entry past the leading zero slab
  // adds the entry one step below it along d, already summed this pass.
  for (int d = 0; d < dims_; ++d) {
    const size_t step = stride_[d];
    const size_t run = step * (ext_[d] + 1);
    for (size_t base = 0; base < entries; base += run) {
      for (size_t at = base + step; at < base + run; ++at) {
        sums_[at] += sums_[at - step];
      }
    }
  }
  ok_ = true;
}

uint32_t CellCountTable::EntryOf(const CellCoord& coord) const {
  DOD_CHECK(ok_ && coord.dims == dims_);
  size_t entry = 0;
  for (int d = 0; d < dims_; ++d) {
    DOD_CHECK(coord.c[d] >= 0 && static_cast<size_t>(coord.c[d]) < ext_[d]);
    entry += (static_cast<size_t>(coord.c[d]) + 1) * stride_[d];
  }
  return static_cast<uint32_t>(entry);
}

size_t CellCountTable::CountBlock(uint32_t entry, int ring_radius) const {
  // Per dimension, the entries just below the block's low face and at its
  // high face, clamped to the box.
  size_t below[kMaxDimensions];
  size_t top[kMaxDimensions];
  const size_t ring = static_cast<size_t>(ring_radius);
  for (int d = 0; d < dims_; ++d) {
    const size_t at = entry / stride_[d] % (ext_[d] + 1);  // cell + 1
    below[d] = (at > ring ? at - ring - 1 : 0) * stride_[d];
    top[d] = std::min(at + ring, ext_[d]) * stride_[d];
  }
  // Inclusion-exclusion over the 2^d corners: a corner taking `below` in an
  // odd number of dimensions subtracts. Unsigned wrap-around is exact, as
  // the block count itself fits.
  uint32_t total = 0;
  for (uint32_t corner = 0; corner < (1u << dims_); ++corner) {
    size_t at = 0;
    for (int d = 0; d < dims_; ++d) {
      at += (corner >> d & 1u) != 0 ? below[d] : top[d];
    }
    if (std::popcount(corner) % 2 == 0) {
      total += sums_[at];
    } else {
      total -= sums_[at];
    }
  }
  return total;
}

}  // namespace dod
