// Copyright 2026 The DOD Authors.

#include "detection/grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "data/generators.h"

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

TEST(SparseGridTest, ForEachCellInBlockRespectsMinRing) {
  const Dataset data = Lattice2D(5);
  const SparseGrid grid = GridOver(data, Point{0.0, 0.0}, 1.0);
  const double center[2] = {2.5, 2.5};
  size_t ring2_count = 0;
  grid.ForEachCellInBlock(grid.CoordOf(center), 2, 2,
                          [&](const SparseGrid::Cell& cell) {
                            ring2_count += cell.points.size();
                          });
  EXPECT_EQ(ring2_count, 16u);  // 5x5 minus 3x3
}

// CountBlock against a scan over every point's cell, in every dimension
// the library supports. Ring radii stay where (2·ring+1)^d is tractable.
TEST(SparseGridTest, CountBlockMatchesBruteForceInDims1To8) {
  for (int dims = 1; dims <= kMaxDimensions; ++dims) {
    SCOPED_TRACE("dims=" + std::to_string(dims));
    const Dataset data =
        GenerateUniform(400, Rect::Cube(dims, 0.0, 6.0), 99 + dims);
    const double side = 1.7;
    const SparseGrid grid = GridOver(data, data.Bounds().min(), side);
    ASSERT_TRUE(grid.fits());
    std::vector<CellCoord> coords;
    for (uint32_t i = 0; i < data.size(); ++i) {
      coords.push_back(grid.CoordOf(data[i]));
    }
    const int max_ring = dims <= 4 ? 2 : 1;
    for (const SparseGrid::Cell& cell : grid.cells()) {
      for (int ring = 0; ring <= max_ring; ++ring) {
        size_t expected = 0;
        for (const CellCoord& c : coords) {
          int cheby = 0;
          for (int d = 0; d < dims; ++d) {
            cheby = std::max(cheby, std::abs(c.c[d] - cell.coord.c[d]));
          }
          if (cheby <= ring) ++expected;
        }
        ASSERT_EQ(grid.CountBlock(cell.coord, ring), expected);
      }
    }
  }
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

}  // namespace
}  // namespace dod
