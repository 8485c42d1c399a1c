// Copyright 2026 The DOD Authors.

#include "detection/grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/generators.h"
#include "detection/partition_view.h"

namespace dod {
namespace {

SparseGrid GridOver(const Dataset& data, const Point& origin, double side) {
  return SparseGrid(origin, side, static_cast<uint32_t>(data.size()),
                    [&](uint32_t i) { return data[i]; });
}

Dataset PointsOf(std::initializer_list<Point> points) {
  Dataset data(points.begin()->dims());
  for (const Point& p : points) data.Append(p);
  return data;
}

// One point at the center of every cell of an `extent`^2 patch.
Dataset Lattice2D(int extent) {
  Dataset data(2);
  for (int x = 0; x < extent; ++x) {
    for (int y = 0; y < extent; ++y) data.Append(Point{x + 0.5, y + 0.5});
  }
  return data;
}

std::vector<uint32_t> Members(const SparseGrid::Cell& cell) {
  return std::vector<uint32_t>(cell.points.begin(), cell.points.end());
}

TEST(CellCoordTest, EqualityAndHash) {
  CellCoord a{{1, 2}, 2};
  CellCoord b{{1, 2}, 2};
  CellCoord c{{1, 3}, 2};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  CellCoordHash hash;
  EXPECT_EQ(hash(a), hash(b));
}

TEST(SparseGridTest, CoordOfUsesFloor) {
  const Dataset data = PointsOf({Point{0.5, 0.5}, Point{-0.5, 1.5}});
  const SparseGrid grid = GridOver(data, Point{0.0, 0.0}, 1.0);
  const CellCoord c1 = grid.CoordOf(data[0]);
  EXPECT_EQ(c1.c[0], 0);
  EXPECT_EQ(c1.c[1], 0);
  const CellCoord c2 = grid.CoordOf(data[1]);
  EXPECT_EQ(c2.c[0], -1);
  EXPECT_EQ(c2.c[1], 1);
}

TEST(SparseGridTest, BuildGroupsPointsByCell) {
  const Dataset data =
      PointsOf({Point{0.1, 0.1}, Point{0.9, 0.9}, Point{1.1, 0.1}});
  const SparseGrid grid = GridOver(data, Point{0.0, 0.0}, 1.0);
  EXPECT_TRUE(grid.fits());
  EXPECT_EQ(grid.cells().size(), 2u);
  const SparseGrid::Cell* cell = grid.Find(grid.CoordOf(data[0]));
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(Members(*cell), (std::vector<uint32_t>{0, 1}));
}

TEST(SparseGridTest, CellsInFirstPointOrderWithAscendingMembers) {
  // Cells A, B, C first seen at ids 0, 1, 3; members interleave.
  const Dataset data = PointsOf({Point{5.5, 5.5},    // A
                                 Point{-3.5, 0.5},   // B
                                 Point{5.1, 5.9},    // A
                                 Point{0.5, -7.5},   // C
                                 Point{-3.1, 0.1},   // B
                                 Point{5.9, 5.1}});  // A
  const SparseGrid grid = GridOver(data, Point{0.0, 0.0}, 1.0);
  ASSERT_EQ(grid.cells().size(), 3u);
  EXPECT_TRUE(grid.cells()[0].coord == grid.CoordOf(data[0]));
  EXPECT_TRUE(grid.cells()[1].coord == grid.CoordOf(data[1]));
  EXPECT_TRUE(grid.cells()[2].coord == grid.CoordOf(data[3]));
  EXPECT_EQ(Members(grid.cells()[0]), (std::vector<uint32_t>{0, 2, 5}));
  EXPECT_EQ(Members(grid.cells()[1]), (std::vector<uint32_t>{1, 4}));
  EXPECT_EQ(Members(grid.cells()[2]), (std::vector<uint32_t>{3}));
}

TEST(SparseGridTest, OrderContractOnRandomData) {
  const Dataset data = GenerateUniform(3000, Rect::Cube(2, 0.0, 40.0), 5);
  const SparseGrid grid = GridOver(data, data.Bounds().min(), 1.3);
  size_t total = 0;
  uint32_t last_first = 0;
  for (size_t c = 0; c < grid.cells().size(); ++c) {
    const SparseGrid::Cell& cell = grid.cells()[c];
    ASSERT_FALSE(cell.points.empty());
    if (c > 0) {
      EXPECT_GT(cell.points.front(), last_first);
    }
    last_first = cell.points.front();
    EXPECT_TRUE(std::is_sorted(cell.points.begin(), cell.points.end()));
    for (uint32_t id : cell.points) {
      EXPECT_TRUE(grid.CoordOf(data[id]) == cell.coord);
    }
    EXPECT_EQ(grid.Find(cell.coord), &cell);
    total += cell.points.size();
  }
  EXPECT_EQ(total, data.size());
}

TEST(SparseGridTest, FindReturnsNullForEmptyCell) {
  const Dataset data = PointsOf({Point{0.5, 0.5}});
  const SparseGrid grid = GridOver(data, Point{0.0, 0.0}, 1.0);
  CellCoord far{{100, 100}, 2};
  EXPECT_EQ(grid.Find(far), nullptr);
}

TEST(SparseGridTest, EmptyPointSet) {
  const Dataset data(2);
  const SparseGrid grid = GridOver(data, Point{0.0, 0.0}, 1.0);
  EXPECT_TRUE(grid.fits());
  EXPECT_TRUE(grid.cells().empty());
  EXPECT_EQ(grid.CountBlock(CellCoord{{0, 0}, 2}, 3), 0u);
}

TEST(SparseGridTest, CountBlockCountsNeighborhood) {
  const Dataset data = Lattice2D(5);
  const SparseGrid grid = GridOver(data, Point{0.0, 0.0}, 1.0);
  const double center[2] = {2.5, 2.5};
  const CellCoord cc = grid.CoordOf(center);
  EXPECT_EQ(grid.CountBlock(cc, 0), 1u);
  EXPECT_EQ(grid.CountBlock(cc, 1), 9u);
  EXPECT_EQ(grid.CountBlock(cc, 2), 25u);
  EXPECT_EQ(grid.CountBlock(cc, 3), 25u);  // nothing beyond the patch
}

// CountBlock against a count of points by Chebyshev cell distance, in every
// dimension the library supports and at rings 0-6 (Cell-Based's outer ring
// in 8-d is 6). The grid probes the (2·ring+1)^d block when it holds at
// least that many cells and scans cells() otherwise — a ring-6 block is 13
// cells in 1-d and 13^8 ≈ 8.2e8 in 8-d — so a few hundred points and a
// handful make both walks run. Queries are every occupied cell and a cell
// beside each, often empty.
TEST(SparseGridTest, CountBlockMatchesBruteForceInDims1To8) {
  struct Layout {
    size_t n;
    double extent;
    double side;
  };
  size_t probed = 0;
  size_t scanned = 0;
  for (int dims = 1; dims <= kMaxDimensions; ++dims) {
    for (const Layout& layout : {Layout{400, 6.0, 1.7}, Layout{6, 20.0, 1.0}}) {
      SCOPED_TRACE("dims=" + std::to_string(dims) +
                   " n=" + std::to_string(layout.n));
      const Dataset data = GenerateUniform(
          layout.n, Rect::Cube(dims, 0.0, layout.extent), 99 + dims);
      const SparseGrid grid = GridOver(data, data.Bounds().min(), layout.side);
      ASSERT_TRUE(grid.fits());
      std::vector<CellCoord> coords;
      for (uint32_t i = 0; i < data.size(); ++i) {
        coords.push_back(grid.CoordOf(data[i]));
      }
      std::vector<CellCoord> queries;
      for (const SparseGrid::Cell& cell : grid.cells()) {
        queries.push_back(cell.coord);
        queries.push_back(cell.coord);
        queries.back().c[0] += 3;
      }
      const double cells = static_cast<double>(grid.cells().size());
      for (const CellCoord& query : queries) {
        std::vector<int> cheby;
        for (const CellCoord& c : coords) {
          int far = 0;
          for (int d = 0; d < dims; ++d) {
            far = std::max(far, std::abs(c.c[d] - query.c[d]));
          }
          cheby.push_back(far);
        }
        for (int ring = 0; ring <= 6; ++ring) {
          const size_t expected = static_cast<size_t>(std::count_if(
              cheby.begin(), cheby.end(), [&](int c) { return c <= ring; }));
          ASSERT_EQ(grid.CountBlock(query, ring), expected) << "ring " << ring;
          ++(cells < std::pow(2.0 * ring + 1.0, dims) ? scanned : probed);
        }
      }
    }
  }
  EXPECT_GT(probed, 0u);
  EXPECT_GT(scanned, 0u);
}

// ~10^5 single-point cells: the open-addressing table runs at its highest
// load with long probe chains, and every lookup must still resolve to the
// right cell. CountBlock(ring 1) of lattice cell (x, y) is the clipped 3x3
// block's area.
TEST(SparseGridTest, CollisionHeavySinglePointCells) {
  constexpr int kExtent = 316;  // 99,856 cells
  const Dataset data = Lattice2D(kExtent);
  const SparseGrid grid = GridOver(data, Point{0.0, 0.0}, 1.0);
  ASSERT_EQ(grid.cells().size(), data.size());
  for (uint32_t i = 0; i < data.size(); ++i) {
    const SparseGrid::Cell& cell = grid.cells()[i];
    ASSERT_EQ(Members(cell), (std::vector<uint32_t>{i}));
    ASSERT_EQ(grid.Find(cell.coord), &cell);
    const int x = cell.coord.c[0];
    const int y = cell.coord.c[1];
    const auto span = [](int v) {
      return std::min(v + 1, kExtent - 1) - std::max(v - 1, 0) + 1;
    };
    ASSERT_EQ(grid.CountBlock(cell.coord, 1),
              static_cast<size_t>(span(x) * span(y)));
  }
  EXPECT_EQ(grid.Find(CellCoord{{-1, 0}, 2}), nullptr);
  EXPECT_EQ(grid.Find(CellCoord{{kExtent, kExtent}, 2}), nullptr);
}

TEST(SparseGridTest, ThreeDimensionalBlocks) {
  Dataset data(3);
  for (int x = 0; x < 3; ++x) {
    for (int y = 0; y < 3; ++y) {
      for (int z = 0; z < 3; ++z) data.Append(Point{x + 0.5, y + 0.5, z + 0.5});
    }
  }
  const SparseGrid grid = GridOver(data, Point{0.0, 0.0, 0.0}, 1.0);
  const double center[3] = {1.5, 1.5, 1.5};
  EXPECT_EQ(grid.CountBlock(grid.CoordOf(center), 1), 27u);
}

// Cell indices beyond ±kMaxCellIndex would alias distinct cells in an
// int32 key; the grid refuses the whole point set instead.
TEST(SparseGridTest, RefusesKeysOutsideTheAddressableRange) {
  Dataset data(2);
  for (int i = 0; i < 6; ++i) data.Append(Point{i * 1e10, 0.0});
  const SparseGrid grid = GridOver(data, data.Bounds().min(), 0.35);
  EXPECT_FALSE(grid.fits());
  EXPECT_TRUE(grid.cells().empty());
  EXPECT_EQ(grid.Find(CellCoord{{0, 0}, 2}), nullptr);
  EXPECT_EQ(grid.CountBlock(CellCoord{{0, 0}, 2}, 3), 0u);

  // The same spread at a side that keeps every index in range is gridded.
  const SparseGrid coarse = GridOver(data, data.Bounds().min(), 1e9);
  EXPECT_TRUE(coarse.fits());
  EXPECT_EQ(coarse.cells().size(), 6u);
}

TEST(SparseGridTest, TryUniformCellKeyBounds) {
  const double origin[1] = {0.0};
  CellCoord coord;
  const double inside[1] = {kMaxCellIndex};
  EXPECT_TRUE(TryUniformCellKey(inside, 1, origin, 1.0, &coord));
  EXPECT_EQ(coord.c[0], 1 << 30);
  const double below[1] = {-kMaxCellIndex};
  EXPECT_TRUE(TryUniformCellKey(below, 1, origin, 1.0, &coord));
  EXPECT_EQ(coord.c[0], -(1 << 30));
  const double beyond[1] = {kMaxCellIndex + 1.0};
  EXPECT_FALSE(TryUniformCellKey(beyond, 1, origin, 1.0, &coord));
  const double nan[1] = {std::nan("")};
  EXPECT_FALSE(TryUniformCellKey(nan, 1, origin, 1.0, &coord));
}

// ---------------------------------------------------------------------------
// CellIndex: the one coordinate -> cell id table behind every grid.

// A CellIndex client shaped like the streaming detector: ids index a dense
// key array and emptied cells return their ids to a free list. Every
// operation is mirrored into a std::map oracle.
class IndexHarness {
 public:
  explicit IndexHarness(size_t expected = 0) : index_(expected) {}

  // Inserts `coord` (or finds it) and returns its id.
  uint32_t Insert(const CellCoord& coord) {
    const uint32_t id = index_.FindOrInsert(coord, Keys(), [&] {
      if (free_ids_.empty()) {
        keys_.push_back(coord);
        return static_cast<uint32_t>(keys_.size() - 1);
      }
      const uint32_t reused = free_ids_.back();
      free_ids_.pop_back();
      keys_[reused] = coord;
      return reused;
    });
    const auto [it, inserted] = oracle_.try_emplace(coord, id);
    EXPECT_EQ(it->second, id);
    EXPECT_LE(2 * index_.size(), index_.capacity());
    return id;
  }

  // Erases `coord`; returns its id, or kNone when it was absent.
  uint32_t Erase(const CellCoord& coord) {
    const uint32_t id = index_.Erase(coord, Keys());
    const auto it = oracle_.find(coord);
    if (it == oracle_.end()) {
      EXPECT_EQ(id, CellIndex::kNone);
    } else {
      EXPECT_EQ(id, it->second);
      oracle_.erase(it);
      free_ids_.push_back(id);
    }
    return id;
  }

  uint32_t Find(const CellCoord& coord) const {
    return index_.Find(coord, Keys());
  }

  // Every oracle key maps to its id, and nothing else is stored.
  void ExpectMatchesOracle() const {
    ASSERT_EQ(index_.size(), oracle_.size());
    for (const auto& [coord, id] : oracle_) ASSERT_EQ(Find(coord), id);
  }

  const CellIndex& index() const { return index_; }
  const std::vector<uint32_t>& free_ids() const { return free_ids_; }

 private:
  struct KeyOf {
    const std::vector<CellCoord>* keys;
    const CellCoord& operator()(uint32_t id) const { return (*keys)[id]; }
  };
  KeyOf Keys() const { return KeyOf{&keys_}; }

  CellIndex index_;
  std::vector<CellCoord> keys_;
  std::vector<uint32_t> free_ids_;
  std::map<CellCoord, uint32_t, CellCoordLess> oracle_;
};

// Lanes over `data`: slot j holds point j with id j, the layout of a task
// arena segment that starts at slot 0 in identity order.
SoABlock LanesOf(const Dataset& data) {
  SoABlock lanes(data.dims());
  lanes.Assign(data);
  return lanes;
}

// Cells per dimension of the box the table spans.
std::vector<int> BoxExtents(const Rect& box, double side) {
  std::vector<int> ext;
  for (int d = 0; d < box.dims(); ++d) {
    ext.push_back(
        static_cast<int>(UniformCellIndex(box.hi(d), box.lo(d), side)) + 1);
  }
  return ext;
}

// Builds the table over all of `data` at `side` and checks, for every cell
// of its box and rings 0..6, its block counts against a brute-force count
// over the points' cells and against SparseGrid::CountBlock; also each
// point's cell and the non-empty cell count against the grid.
void ExpectTableMatchesGrid(const Dataset& data, double side) {
  const SoABlock lanes = LanesOf(data);
  const Rect box = lanes.Bounds(0, data.size());
  const CellCountTable table(lanes, 0, data.size(), box, side);
  ASSERT_TRUE(table.ok());
  const SparseGrid grid = GridOver(data, box.min(), side);
  ASSERT_TRUE(grid.fits());
  EXPECT_EQ(table.num_cells(), grid.cells().size());
  std::vector<CellCoord> coords;
  for (uint32_t i = 0; i < data.size(); ++i) {
    coords.push_back(grid.CoordOf(data[i]));
    ASSERT_EQ(table.CellOf(i), table.EntryOf(coords.back())) << "point " << i;
  }
  const std::vector<int> ext = BoxExtents(box, side);
  const int dims = data.dims();
  CellCoord query;
  query.dims = dims;
  // Odometer over every cell of the box, empty ones included.
  for (bool more = true; more;) {
    const uint32_t entry = table.EntryOf(query);
    for (int ring = 0; ring <= 6; ++ring) {
      size_t expected = 0;
      for (const CellCoord& c : coords) {
        int far = 0;
        for (int d = 0; d < dims; ++d) {
          far = std::max(far, std::abs(c.c[d] - query.c[d]));
        }
        expected += far <= ring ? 1 : 0;
      }
      ASSERT_EQ(table.CountBlock(entry, ring), expected) << "ring " << ring;
      ASSERT_EQ(grid.CountBlock(query, ring), expected) << "ring " << ring;
    }
    more = false;
    for (int d = 0; d < dims && !more; ++d) {
      if (++query.c[d] < ext[d]) {
        more = true;
      } else {
        query.c[d] = 0;
      }
    }
  }
}

// Uniform points over boxes of 2 to 20 cells a side, each inside the
// table's entry bound, so rings 0..6 clamp at every face.
TEST(CellCountTableTest, BlockCountsMatchBruteForceAndGridInDims1To8) {
  struct Layout {
    size_t n;
    double extent;
  };
  const Layout layouts[kMaxDimensions] = {{30, 20.0},  {60, 10.0},
                                          {100, 5.0},  {200, 4.0},
                                          {300, 3.0},  {200, 2.0},
                                          {600, 2.0},  {1700, 2.0}};
  for (int dims = 1; dims <= kMaxDimensions; ++dims) {
    const Layout& layout = layouts[dims - 1];
    SCOPED_TRACE("dims=" + std::to_string(dims));
    const Dataset data = GenerateUniform(
        layout.n, Rect::Cube(dims, 0.0, layout.extent), 17 + dims);
    ExpectTableMatchesGrid(data, 1.0);
  }
}

// Every point in one cell: each block count is the whole set.
TEST(CellCountTableTest, SingleCellBox) {
  for (int dims = 1; dims <= kMaxDimensions; ++dims) {
    SCOPED_TRACE("dims=" + std::to_string(dims));
    const Dataset data =
        GenerateUniform(50, Rect::Cube(dims, 3.0, 3.9), 5 + dims);
    const SoABlock lanes = LanesOf(data);
    const CellCountTable table(lanes, 0, data.size(),
                               lanes.Bounds(0, data.size()), 1.0);
    ASSERT_TRUE(table.ok());
    EXPECT_EQ(table.num_cells(), 1u);
    EXPECT_EQ(table.num_entries(), size_t{1} << dims);
    for (int ring = 0; ring <= 6; ++ring) {
      EXPECT_EQ(table.CountBlock(table.CellOf(0), ring), data.size());
    }
    ExpectTableMatchesGrid(data, 1.0);
  }
}

// Points exactly on multiples of the side start their cells: a lattice at
// side 0.25 puts point (i, j) alone in cell (i, j), the top face's points
// included. A side of 0.1 rounds, and the table must still agree with the
// grid's formula.
TEST(CellCountTableTest, PointsOnMultiplesOfTheSide) {
  Dataset data(2);
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) data.Append(Point{x * 0.25, y * 0.25});
  }
  const SoABlock lanes = LanesOf(data);
  const CellCountTable table(lanes, 0, data.size(),
                             lanes.Bounds(0, data.size()), 0.25);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.num_cells(), 100u);
  for (uint32_t i = 0; i < data.size(); ++i) {
    const CellCoord cell{{static_cast<int32_t>(i / 10),
                          static_cast<int32_t>(i % 10)},
                         2};
    ASSERT_EQ(table.CellOf(i), table.EntryOf(cell)) << "point " << i;
    const auto span = [](int v) {
      return std::min(v + 1, 9) - std::max(v - 1, 0) + 1;
    };
    ASSERT_EQ(table.CountBlock(table.CellOf(i), 0), 1u);
    ASSERT_EQ(table.CountBlock(table.CellOf(i), 1),
              static_cast<size_t>(span(cell.c[0]) * span(cell.c[1])));
  }
  ExpectTableMatchesGrid(data, 0.25);

  Dataset shifted(2);
  for (int x = 0; x < 12; ++x) {
    for (int y = 0; y < 12; ++y) {
      shifted.Append(Point{-0.3 + x * 0.1, 0.7 + y * 0.1});
    }
  }
  ExpectTableMatchesGrid(shifted, 0.1);
}

// The padded table may hold 4·n + 64 entries: a box one cell short of it
// in one dimension takes the table, one more cell refuses it.
TEST(CellCountTableTest, BoxJustInsideAndJustOutsideTheBound) {
  // 1-d, 10 points: the bound is 104 entries, i.e. 103 cells.
  for (const double top : {102.5, 103.5}) {
    Dataset data(1);
    for (int i = 0; i < 9; ++i) data.Append(Point{i * 0.5});
    data.Append(Point{top});
    const SoABlock lanes = LanesOf(data);
    const Rect box = lanes.Bounds(0, data.size());
    const bool inside = top < 103.0;
    SCOPED_TRACE(inside ? "inside" : "outside");
    EXPECT_EQ(CellCountTable::Accepts(box, 1.0, data.size()), inside);
    const CellCountTable table(lanes, 0, data.size(), box, 1.0);
    EXPECT_EQ(table.ok(), inside);
    if (inside) {
      EXPECT_EQ(table.num_entries(), 4 * data.size() + 64);
      ExpectTableMatchesGrid(data, 1.0);
    } else {
      EXPECT_EQ(table.num_entries(), 0u);
    }
  }
  // 2-d, 20 points: the bound is 144 = 12 x 12 entries, 11 x 11 cells.
  for (const double top : {10.5, 11.5}) {
    Dataset data(2);
    for (int i = 0; i < 19; ++i) data.Append(Point{i * 0.5, i * 0.5});
    data.Append(Point{top, 10.5});
    const SoABlock lanes = LanesOf(data);
    const Rect box = lanes.Bounds(0, data.size());
    const bool inside = top < 11.0;
    SCOPED_TRACE(inside ? "inside" : "outside");
    EXPECT_EQ(CellCountTable::Accepts(box, 1.0, data.size()), inside);
    const CellCountTable table(lanes, 0, data.size(), box, 1.0);
    EXPECT_EQ(table.ok(), inside);
    if (inside) ExpectTableMatchesGrid(data, 1.0);
  }
}

// A box a cell short of the points refuses instead of miscounting.
TEST(CellCountTableTest, RefusesAPointOutsideTheBox) {
  const Dataset data = GenerateUniform(40, Rect::Cube(2, 0.0, 5.0), 3);
  const SoABlock lanes = LanesOf(data);
  const Rect box = lanes.Bounds(0, data.size());
  const Rect short_box(box.min(), Point{box.hi(0) - 1.5, box.hi(1)});
  const CellCountTable table(lanes, 0, data.size(), short_box, 1.0);
  EXPECT_FALSE(table.ok());
}

// Over a task arena's segments: slots are permuted and segments start past
// slot 0, and each point's cell is found by its local index.
TEST(CellCountTableTest, ArenaSegmentsKeyPointsByLocalIndex) {
  const Dataset data = GenerateUniform(500, Rect::Cube(2, 0.0, 12.0), 41);
  TaskArena arena(data);
  for (PointId first : {0u, 200u}) {
    arena.BeginCell();
    for (PointId id = first; id < first + 300; ++id) arena.AddPoint(id);
    arena.EndCell(/*num_core=*/150, /*permutation_seed=*/first + 9);
  }
  ASSERT_TRUE(arena.TryBuildProbes().ok());
  for (size_t c = 0; c < arena.num_cells(); ++c) {
    const PartitionView view = arena.View(c);
    const SoABlock& lanes = view.probe_lanes();
    const Rect box = lanes.Bounds(view.probe_begin(), view.probe_end());
    const CellCountTable table(lanes, view.probe_begin(), view.probe_end(),
                               box, 1.0);
    ASSERT_TRUE(table.ok());
    const SparseGrid grid(box.min(), 1.0, static_cast<uint32_t>(view.size()),
                          [&](uint32_t i) { return view.point(i); });
    EXPECT_EQ(table.num_cells(), grid.cells().size());
    for (uint32_t i = 0; i < view.size(); ++i) {
      const CellCoord coord = grid.CoordOf(view.point(i));
      ASSERT_EQ(table.CellOf(i), table.EntryOf(coord)) << "point " << i;
      ASSERT_EQ(table.CountBlock(table.CellOf(i), 3),
                grid.CountBlock(coord, 3));
    }
  }
}

CellCoord Coord2(int32_t x, int32_t y) { return CellCoord{{x, y}, 2}; }

// The first `count` 2-D coordinates (x, 0), x = 0, 1, ..., whose probe
// starts at `slot`.
std::vector<CellCoord> KeysHomedAt(const CellIndex& index, size_t slot,
                                   size_t count) {
  std::vector<CellCoord> keys;
  for (int32_t x = 0; keys.size() < count; ++x) {
    if (index.HomeSlot(Coord2(x, 0)) == slot) keys.push_back(Coord2(x, 0));
  }
  return keys;
}

TEST(CellIndexTest, RandomOperationsMatchMapOracleInDims1To8) {
  for (int dims = 1; dims <= kMaxDimensions; ++dims) {
    SCOPED_TRACE("dims " + std::to_string(dims));
    Rng rng(1000 + dims);
    IndexHarness harness;
    // Coordinates from a small range, so keys repeat and runs collide;
    // insert-heavy and erase-heavy phases alternate so the table fills,
    // grows and drains.
    const auto random_coord = [&] {
      CellCoord coord;
      coord.dims = dims;
      for (int d = 0; d < dims; ++d) {
        coord.c[d] = static_cast<int32_t>(rng.NextBounded(dims <= 2 ? 40 : 4));
      }
      return coord;
    };
    for (int phase = 0; phase < 6; ++phase) {
      const double insert_share = phase % 2 == 0 ? 0.8 : 0.2;
      for (int op = 0; op < 1500; ++op) {
        const CellCoord coord = random_coord();
        const double roll = rng.NextDouble();
        if (roll < insert_share) {
          harness.Insert(coord);
        } else if (roll < insert_share + 0.1) {
          // Whatever was there, a second erase finds nothing.
          harness.Erase(coord);
          EXPECT_EQ(harness.Erase(coord), CellIndex::kNone);
        } else {
          harness.Erase(coord);
        }
      }
      harness.ExpectMatchesOracle();
    }
  }
}

TEST(CellIndexTest, KeysSharingAHomeSlotAndAnEraseThatWrapsPastTheEnd) {
  IndexHarness harness;
  const size_t last = harness.index().capacity() - 1;
  // Three keys homed at the last slot fill it and wrap to slots 0 and 1.
  const std::vector<CellCoord> tail = KeysHomedAt(harness.index(), last, 3);
  const uint32_t a = harness.Insert(tail[0]);
  const uint32_t b = harness.Insert(tail[1]);
  const uint32_t c = harness.Insert(tail[2]);
  EXPECT_EQ(harness.Find(tail[2]), c);

  // Erasing the last slot's key shifts both followers back one slot,
  // across the end of the table; a hole left at slot 0 (no shift, or a
  // shift rule that does not wrap) would hide the key at slot 1.
  EXPECT_EQ(harness.Erase(tail[0]), a);
  EXPECT_EQ(harness.Find(tail[0]), CellIndex::kNone);
  EXPECT_EQ(harness.Find(tail[1]), b);
  EXPECT_EQ(harness.Find(tail[2]), c);
  harness.ExpectMatchesOracle();

  // A key homed at slot 0 now lands behind the wrapped run, at slot 1;
  // erasing the run's head shifts it, too, back to its home.
  const CellCoord head = KeysHomedAt(harness.index(), 0, 1)[0];
  const uint32_t h = harness.Insert(head);
  EXPECT_EQ(harness.Erase(tail[1]), b);
  EXPECT_EQ(harness.Find(tail[2]), c);
  EXPECT_EQ(harness.Find(head), h);
  harness.ExpectMatchesOracle();
}

TEST(CellIndexTest, GrowthKeepsEveryHeldId) {
  IndexHarness harness;
  std::vector<std::pair<CellCoord, uint32_t>> held;
  size_t growths = 0;
  for (int32_t x = 0; x < 60; ++x) {
    for (int32_t y = 0; y < 60; ++y) {
      const size_t capacity = harness.index().capacity();
      held.emplace_back(Coord2(x, y), harness.Insert(Coord2(x, y)));
      if (harness.index().capacity() != capacity) ++growths;
    }
    // Ids handed out before any growth still find their keys.
    for (const auto& [coord, id] : held) ASSERT_EQ(harness.Find(coord), id);
  }
  EXPECT_GE(growths, 8u);
  EXPECT_EQ(held.back().second, 60u * 60u - 1u);
  harness.ExpectMatchesOracle();
}

TEST(CellIndexTest, TableSizedForItsCellsNeverGrows) {
  // SparseGrid sizes its index for num_points cells, so its probe
  // sequence is fixed at construction.
  IndexHarness harness(1000);
  const size_t capacity = harness.index().capacity();
  EXPECT_EQ(capacity, 2048u);
  for (int32_t x = 0; x < 1000; ++x) harness.Insert(Coord2(x, -x));
  EXPECT_EQ(harness.index().capacity(), capacity);
  harness.ExpectMatchesOracle();
}

TEST(CellIndexTest, FreedIdsAreReusedForNewCells) {
  IndexHarness harness;
  for (int32_t x = 0; x < 10; ++x) harness.Insert(Coord2(x, 0));
  for (int32_t x = 0; x < 10; x += 2) harness.Erase(Coord2(x, 0));
  const std::vector<uint32_t> freed = harness.free_ids();
  ASSERT_EQ(freed.size(), 5u);
  // New cells take the freed ids (last freed first); the old keys behind
  // those ids stay gone and the survivors keep theirs.
  for (int32_t x = 0; x < 5; ++x) {
    EXPECT_EQ(harness.Insert(Coord2(x, 1)), freed[freed.size() - 1 - x]);
  }
  EXPECT_TRUE(harness.free_ids().empty());
  for (int32_t x = 0; x < 10; x += 2) {
    EXPECT_EQ(harness.Find(Coord2(x, 0)), CellIndex::kNone);
    EXPECT_EQ(harness.Find(Coord2(x + 1, 0)), static_cast<uint32_t>(x + 1));
  }
  EXPECT_EQ(harness.Insert(Coord2(0, 2)), 10u);
  harness.ExpectMatchesOracle();
}

}  // namespace
}  // namespace dod
