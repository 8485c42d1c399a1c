// Copyright 2026 The DOD Authors.

#include "detection/grid.h"

#include <bit>

namespace dod {

SparseGrid::SparseGrid(const Point& origin, double side, uint32_t num_points)
    : origin_(origin), side_(side) {
  DOD_CHECK(side > 0.0);
  DOD_CHECK(origin.dims() >= 1);
  const size_t capacity =
      std::bit_ceil(std::max<size_t>(16, 2 * static_cast<size_t>(num_points)));
  table_.assign(capacity, kEmptySlot);
  table_shift_ = 64 - std::countr_zero(capacity);
}

CellCoord SparseGrid::CoordOf(const double* p) const {
  // One formula for every grid in the system (see detection/cell_key.h);
  // the streaming dirty-cell tracker keys cells through the same helper.
  return UniformCellKey(p, dims(), origin_.data(), side_);
}

size_t SparseGrid::SlotOf(const CellCoord& coord) const {
  // Fibonacci hashing on top of FNV-1a: the multiply spreads the key over
  // the high bits, which index the power-of-two table.
  return static_cast<size_t>(
      (static_cast<uint64_t>(CellCoordHash{}(coord)) *
       0x9E3779B97F4A7C15ULL) >>
      table_shift_);
}

uint32_t SparseGrid::CellIndexFor(const CellCoord& coord) {
  const size_t mask = table_.size() - 1;
  for (size_t slot = SlotOf(coord);; slot = (slot + 1) & mask) {
    const uint32_t index = table_[slot];
    if (index == kEmptySlot) {
      table_[slot] = static_cast<uint32_t>(cells_.size());
      cells_.push_back(Cell{coord, {}});
      return table_[slot];
    }
    if (cells_[index].coord == coord) return index;
  }
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
  table_ = {};
  members_ = {};
}

const SparseGrid::Cell* SparseGrid::Find(const CellCoord& coord) const {
  if (table_.empty()) return nullptr;
  const size_t mask = table_.size() - 1;
  for (size_t slot = SlotOf(coord);; slot = (slot + 1) & mask) {
    const uint32_t index = table_[slot];
    if (index == kEmptySlot) return nullptr;
    if (cells_[index].coord == coord) return &cells_[index];
  }
}

size_t SparseGrid::CountBlock(const CellCoord& coord, int ring_radius) const {
  size_t total = 0;
  ForEachCellInBlock(coord, 0, ring_radius,
                     [&](const Cell& cell) { total += cell.points.size(); });
  return total;
}

}  // namespace dod
