// Copyright 2026 The DOD Authors.
//
// Sparse uniform grid over d-dimensional space, built once over a fixed
// point set. Cells are addressed by integer coordinates relative to an
// anchor; only non-empty cells are materialized. Used by the Cell-Based
// detector (Knorr & Ng) and by DBSCAN's eps index.
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

#include <algorithm>
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

  // Number of points within Chebyshev cell-distance `ring_radius` of `coord`
  // (the (2·ring_radius+1)^d block centered on `coord`). Counts only
  // materialized cells, including `coord` itself.
  size_t CountBlock(const CellCoord& coord, int ring_radius) const;

  // Invokes `fn(cell)` for every non-empty cell in the block of Chebyshev
  // radius `ring_radius` around `coord` whose Chebyshev distance is in
  // [min_ring, ring_radius]. Pass min_ring=0 to include the center cell.
  template <typename Fn>
  void ForEachCellInBlock(const CellCoord& coord, int min_ring,
                          int ring_radius, Fn&& fn) const {
    CellCoord probe;
    probe.dims = coord.dims;
    VisitBlock(coord, min_ring, ring_radius, 0, 0, probe, fn);
  }

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

  template <typename Fn>
  void VisitBlock(const CellCoord& center, int min_ring, int max_ring,
                  int dim, int cheby_so_far, CellCoord& probe,
                  Fn&& fn) const {
    if (dim == center.dims) {
      if (cheby_so_far < min_ring) return;
      const Cell* cell = Find(probe);
      if (cell != nullptr) fn(*cell);
      return;
    }
    for (int off = -max_ring; off <= max_ring; ++off) {
      probe.c[dim] = center.c[dim] + off;
      const int cheby = std::max(cheby_so_far, off < 0 ? -off : off);
      VisitBlock(center, min_ring, max_ring, dim + 1, cheby, probe, fn);
    }
  }

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
