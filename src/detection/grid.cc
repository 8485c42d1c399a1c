// Copyright 2026 The DOD Authors.

#include "detection/grid.h"

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

}  // namespace dod
