// Copyright 2026 The DOD Authors.
//
// The two cell indexes of the Cell-Based detector (Knorr & Ng), both over
// the uniform grid of detection/cell_key.h anchored at the box's lower
// corner, so a point has the same cell address in either:
//
//   * CellCountTable, for small boxes: a flat summed-area table of
//     per-cell point counts over the bounding box of the points. A block
//     count is 2^d corner lookups, whatever the ring. Memory is O(box
//     cells), so it is built only when the box is small next to the point
//     count (CellCountTable::Accepts).
//   * SparseGrid, for every other box: only non-empty cells are
//     materialized, behind one hash index. A block count probes the
//     block's cells one by one. Memory is O(points), never O(box cells).
//
// SparseGrid layout (CSR): one CellIndex (detection/cell_key.h) maps a cell
// coordinate to its cell index, and the member ids of all cells live in
// one array that a counting sort groups by cell; each cell's members are
// a span of it. Building costs a handful of flat allocations whatever the
// number of cells.
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

#include "common/bounds.h"
#include "common/point.h"
#include "common/status.h"
#include "detection/cell_key.h"
#include "kernels/soa_block.h"

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

// Summed-area table of per-cell point counts over a box of cells. Cell c of
// dimension d covers [box.min[d] + c·side, box.min[d] + (c+1)·side) for c
// in [0, ext_d), ext_d = floor((box.max[d] - box.min[d]) / side) + 1: the
// cells a SparseGrid anchored at box.min() with the same side assigns.
//
// Layout: one flat array of prod(ext_d + 1) entries, dimension 0
// innermost. Each dimension has one extra leading entry that stays zero,
// and the entry of cell c (at c + 1 in every dimension) holds the number of
// points in the cells <= c componentwise. A block count then takes its 2^d
// corners, clamped to the box, with signs by inclusion-exclusion.
class CellCountTable {
 public:
  // A box fits when its padded table holds at most kEntriesPerPoint
  // entries per point plus kEntrySlack. Measured over every Cell-Based
  // partition of dod_bench's DMT workloads, the padded tables hold 0.41
  // entries per point on region_ca and 0.18 on dense_planted (uniform at
  // density 2), so all of them take the table with ~10x headroom. Sparse
  // partitions, the low densities of Fig. 5 and 8-d inputs, whose boxes
  // hold far more cells than points, keep SparseGrid.
  static constexpr size_t kEntriesPerPoint = 4;
  static constexpr size_t kEntrySlack = 64;

  // True iff the padded table over `box` at cell side `side` holds at most
  // kEntriesPerPoint · num_points + kEntrySlack entries.
  static bool Accepts(const Rect& box, double side, size_t num_points);

  // Counts the points in slots [begin, end) of `lanes` (a task arena's
  // probe segment: slot ids are local indices 0 .. end - begin - 1),
  // reading the double lanes in slot order. `box` is their bounding box.
  // ok() is false, and the table holds nothing, when the box does not fit
  // or some point falls outside it.
  CellCountTable(const SoABlock& lanes, size_t begin, size_t end,
                 const Rect& box, double side);

  bool ok() const { return ok_; }

  // Entries in the table; every cell's entry is below it, so per-cell
  // arrays indexed by entry take this size.
  size_t num_entries() const { return sums_.size(); }

  // Non-empty cells.
  size_t num_cells() const { return num_cells_; }

  // Entry of the cell holding local point i.
  uint32_t CellOf(uint32_t i) const { return cell_of_[i]; }

  // Entry of the cell at `coord`, which must lie in the box.
  uint32_t EntryOf(const CellCoord& coord) const;

  // Number of points within Chebyshev cell-distance `ring_radius` (>= 0)
  // of cell `entry`: what SparseGrid::CountBlock returns for its coordinate.
  size_t CountBlock(uint32_t entry, int ring_radius) const;

 private:
  int dims_;
  bool ok_ = false;
  // Cells per dimension, and the entry stride of each dimension.
  size_t ext_[kMaxDimensions] = {};
  size_t stride_[kMaxDimensions] = {};
  std::vector<uint32_t> sums_;
  std::vector<uint32_t> cell_of_;
  size_t num_cells_ = 0;
};

}  // namespace dod

#endif  // DOD_DETECTION_GRID_H_
