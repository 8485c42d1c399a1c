// Copyright 2026 The DOD Authors.
//
// Sparse uniform grid over d-dimensional space, built once over a fixed
// point set. Cells are addressed by integer coordinates relative to an
// anchor; only non-empty cells are materialized. Used by the Cell-Based
// detector (Knorr & Ng).
//
// Layout (CSR): one CellIndex (detection/cell_key.h) maps a cell
// coordinate to its cell index, and the member ids of all cells live in
// one array that a counting sort groups by cell; each cell's members are
// a span of it.
// Building costs a handful of flat allocations whatever the number of
// cells, and memory is O(points), never O(bounding-box cells).
//
// Order contract: cells come in order of their first point, and each
// cell's members are ascending.
//
// No aliasing: a point whose cell index falls outside ±kMaxCellIndex in
// some dimension cannot be keyed without two distinct cells sharing one
// int32 address. The grid then refuses the whole point set: `fits()` is
// false and it holds no cells, so callers answer from the points directly.

#ifndef DOD_DETECTION_GRID_H_
#define DOD_DETECTION_GRID_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/point.h"
#include "common/status.h"
#include "detection/cell_key.h"

namespace dod {

class SparseGrid {
 public:
  struct Cell {
    CellCoord coord;
    std::span<const uint32_t> points;
  };

  // Grid of side `side` anchored at `origin` (coordinates of cell (0,..,0)'s
  // lower corner) over points 0..num_points-1, where `point(i)` returns the
  // coordinates of point i.
  template <typename PointFn>
  SparseGrid(const Point& origin, double side, uint32_t num_points,
             PointFn&& point)
      : SparseGrid(origin, side, num_points) {
    std::vector<uint32_t> cell_of(num_points);
    CellCoord coord;
    for (uint32_t i = 0; i < num_points; ++i) {
      if (!TryUniformCellKey(point(i), dims(), origin_.data(), side_,
                             &coord)) {
        Refuse();
        return;
      }
      cell_of[i] = CellIndexFor(coord);
    }
    Finish(cell_of);
  }

  SparseGrid(const SparseGrid&) = delete;
  SparseGrid& operator=(const SparseGrid&) = delete;

  int dims() const { return origin_.dims(); }

  // False when some point's cell index was out of range; the grid is then
  // empty (see the file comment).
  bool fits() const { return fits_; }

  // Cell of `p`. `p` must key within range (true of every built point
  // when fits()).
  CellCoord CoordOf(const double* p) const;

  // All non-empty cells, in order of their first point.
  const std::vector<Cell>& cells() const { return cells_; }

  // Pointer to the cell at `coord`, or nullptr when empty.
  const Cell* Find(const CellCoord& coord) const;

  // Number of points within Chebyshev cell-distance `ring_radius` (>= 0)
  // of `coord` (the (2·ring_radius+1)^d block centered on `coord`), including
  // `coord` itself. Probes the block's cells, or scans cells() when fewer
  // cells are occupied than the block has — at 8-d a Cell-Based ring of 6
  // is 13^8 ≈ 8.2e8 cells. Either walk sums the same cells.
  size_t CountBlock(const CellCoord& coord, int ring_radius) const;

 private:
  SparseGrid(const Point& origin, double side, uint32_t num_points);

  // Index of the cell at `coord`, materializing it on first sight.
  uint32_t CellIndexFor(const CellCoord& coord) {
    return index_.FindOrInsert(coord, CellKeys{&cells_}, [&] {
      cells_.push_back(Cell{coord, {}});
      return static_cast<uint32_t>(cells_.size() - 1);
    });
  }
  // Counting-sorts the point ids into the CSR member array.
  void Finish(const std::vector<uint32_t>& cell_of);
  // Drops everything built so far and marks the grid as not fitting.
  void Refuse();

  // CellIndex key accessor: cell i's coordinate.
  struct CellKeys {
    const std::vector<Cell>* cells;
    const CellCoord& operator()(uint32_t i) const { return (*cells)[i].coord; }
  };

  // CountBlock's probing walk: sums the members of every cell of the block
  // whose first `dim` coordinates are fixed in `probe`.
  size_t ProbeBlock(const CellCoord& center, int ring_radius, int dim,
                    CellCoord* probe) const;

  Point origin_;
  double side_;
  bool fits_ = true;
  std::vector<Cell> cells_;
  // Cell indices by coordinate; sized for num_points cells, so it never
  // grows.
  CellIndex index_;
  // CSR member array: every point id once, grouped by cell.
  std::vector<uint32_t> members_;
};

}  // namespace dod

#endif  // DOD_DETECTION_GRID_H_
