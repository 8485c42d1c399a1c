// Copyright 2026 The DOD Authors.

#include "detection/grid.h"

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

size_t SparseGrid::CountBlock(const CellCoord& coord, int ring_radius) const {
  size_t total = 0;
  ForEachCellInBlock(coord, 0, ring_radius,
                     [&](const Cell& cell) { total += cell.points.size(); });
  return total;
}

}  // namespace dod
