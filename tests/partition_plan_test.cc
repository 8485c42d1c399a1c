// Copyright 2026 The DOD Authors.
//
// PartitionPlan structural invariants (Def. 3.1), supporting areas
// (Def. 3.3), and the router (core + support point mapping of Fig. 3).

#include "partition/partition_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "common/distance.h"
#include "data/generators.h"
#include "partition/strategies.h"

namespace dod {
namespace {

PartitionPlan TwoByTwoPlan(double radius = 1.0) {
  const Rect domain = Rect::Cube(2, 0.0, 10.0);
  return PartitionPlan(domain, radius, EquiWidthCells(domain, 4));
}

TEST(PartitionPlanTest, ValidPlanPassesValidation) {
  const PartitionPlan plan = TwoByTwoPlan();
  EXPECT_TRUE(plan.Validate().ok());
  EXPECT_EQ(plan.num_cells(), 4u);
}

TEST(PartitionPlanTest, PlanWithoutCellsFailsValidation) {
  EXPECT_FALSE(PartitionPlan().Validate().ok());
}

TEST(PartitionPlanTest, OverlappingCellsFailValidation) {
  const Rect domain = Rect::Cube(2, 0.0, 10.0);
  std::vector<Rect> cells = {Rect(Point{0.0, 0.0}, Point{6.0, 10.0}),
                             Rect(Point{5.0, 0.0}, Point{10.0, 10.0})};
  const PartitionPlan plan(domain, 1.0, cells);
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(PartitionPlanTest, GapsFailValidation) {
  const Rect domain = Rect::Cube(2, 0.0, 10.0);
  std::vector<Rect> cells = {Rect(Point{0.0, 0.0}, Point{4.0, 10.0}),
                             Rect(Point{5.0, 0.0}, Point{10.0, 10.0})};
  const PartitionPlan plan(domain, 1.0, cells);
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(PartitionPlanTest, CellOutsideDomainFailsValidation) {
  const Rect domain = Rect::Cube(2, 0.0, 10.0);
  std::vector<Rect> cells = {Rect(Point{0.0, 0.0}, Point{12.0, 10.0})};
  const PartitionPlan plan(domain, 1.0, cells);
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(PartitionPlanTest, SupportBoundsAreRExtension) {
  const PartitionPlan plan = TwoByTwoPlan(1.5);
  const Rect support = plan.SupportBounds(0);
  const Rect& cell = plan.cell(0).bounds;
  for (int d = 0; d < 2; ++d) {
    EXPECT_DOUBLE_EQ(support.lo(d), cell.lo(d) - 1.5);
    EXPECT_DOUBLE_EQ(support.hi(d), cell.hi(d) + 1.5);
  }
}

TEST(PartitionPlanTest, ContainsCoreIsHalfOpenInside) {
  const PartitionPlan plan = TwoByTwoPlan();
  // The internal boundary x=5 belongs to the right cells only.
  const double on_split[2] = {5.0, 2.0};
  int owners = 0;
  for (uint32_t id = 0; id < plan.num_cells(); ++id) {
    if (plan.ContainsCore(id, on_split)) ++owners;
  }
  EXPECT_EQ(owners, 1);
}

TEST(PartitionPlanTest, DomainUpperBoundaryIsOwned) {
  const PartitionPlan plan = TwoByTwoPlan();
  const double corner[2] = {10.0, 10.0};
  int owners = 0;
  for (uint32_t id = 0; id < plan.num_cells(); ++id) {
    if (plan.ContainsCore(id, corner)) ++owners;
  }
  EXPECT_EQ(owners, 1);
}

TEST(PartitionRouterTest, RouteCoreAgreesWithContainsCore) {
  const PartitionPlan plan = TwoByTwoPlan();
  const PartitionRouter router(plan);
  const Dataset data = GenerateUniform(2000, plan.domain(), 17);
  for (size_t i = 0; i < data.size(); ++i) {
    const double* p = data[static_cast<PointId>(i)];
    const uint32_t cell = router.RouteCore(p);
    EXPECT_TRUE(plan.ContainsCore(cell, p));
  }
}

TEST(PartitionRouterTest, EveryPointHasExactlyOneCoreCell) {
  const Rect domain = Rect::Cube(2, 0.0, 100.0);
  const PartitionPlan plan(domain, 2.0, EquiWidthCells(domain, 25));
  const Dataset data = GenerateUniform(3000, domain, 19);
  for (size_t i = 0; i < data.size(); ++i) {
    const double* p = data[static_cast<PointId>(i)];
    int owners = 0;
    for (uint32_t id = 0; id < plan.num_cells(); ++id) {
      if (plan.ContainsCore(id, p)) ++owners;
    }
    EXPECT_EQ(owners, 1);
  }
}

// An irregular plan: `cuts` guillotine splits of `domain` at seeded,
// non-round positions, each splitting the largest cell along its longest
// side. Disjoint cells covering the domain, of uneven sizes.
PartitionPlan GuillotinePlan(const Rect& domain, double radius, int cuts,
                             uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> fraction(0.2, 0.8);
  std::vector<Rect> cells = {domain};
  for (int c = 0; c < cuts; ++c) {
    size_t largest = 0;
    for (size_t i = 1; i < cells.size(); ++i) {
      if (cells[i].Area() > cells[largest].Area()) largest = i;
    }
    const Rect cell = cells[largest];
    int dim = 0;
    for (int d = 1; d < cell.dims(); ++d) {
      if (cell.Extent(d) > cell.Extent(dim)) dim = d;
    }
    const double cut = cell.lo(dim) + fraction(rng) * cell.Extent(dim);
    Point upper_lo = cell.min();
    Point lower_hi = cell.max();
    upper_lo[dim] = cut;
    lower_hi[dim] = cut;
    cells[largest] = Rect(cell.min(), lower_hi);
    cells.push_back(Rect(upper_lo, cell.max()));
  }
  return PartitionPlan(domain, radius, std::move(cells));
}

// Uniform points plus, for every cell, points on each of its faces and
// exactly on each r-extension edge (other coordinates at the cell's
// center), which covers internal faces and the domain's upper boundary.
std::vector<Point> RoutingProbes(const PartitionPlan& plan, uint64_t seed) {
  std::vector<Point> probes;
  const Dataset uniform = GenerateUniform(600, plan.domain(), seed);
  for (size_t i = 0; i < uniform.size(); ++i) {
    const double* p = uniform[static_cast<PointId>(i)];
    probes.emplace_back(p, plan.dims());
  }
  const double r = plan.radius();
  for (const GridCell& cell : plan.cells()) {
    const Point center = cell.bounds.Center();
    for (int d = 0; d < plan.dims(); ++d) {
      for (double x : {cell.bounds.lo(d), cell.bounds.hi(d),
                       cell.bounds.lo(d) - r, cell.bounds.hi(d) + r}) {
        Point probe = center;
        probe[d] = x;
        probes.push_back(probe);
      }
    }
  }
  probes.push_back(plan.domain().max());
  return probes;
}

TEST(PartitionRouterTest, RouteSupportMatchesDefinition) {
  // Def. 3.3 ground truth: p is a support point of cell C iff p lies in the
  // r-extension of C (closed) but is not a core point of C. The fused Route
  // must return RouteCore's cell and append RouteSupport's cells in order.
  // The last plan's r-extensions span the whole domain, so the router must
  // coarsen its bins to keep the candidate table bounded.
  const Rect square = Rect::Cube(2, 0.0, 50.0);
  const std::vector<PartitionPlan> plans = {
      PartitionPlan(square, 3.0, EquiWidthCells(square, 16)),
      GuillotinePlan(Rect::Cube(1, 0.0, 100.0), 2.5, 11, 41),
      GuillotinePlan(Rect::Cube(2, -20.0, 80.0), 3.0, 23, 43),
      GuillotinePlan(Rect(Point{0.0, 0.0, 0.0}, Point{60.0, 40.0, 20.0}), 2.0,
                     31, 47),
      GuillotinePlan(Rect::Cube(1, 0.0, 100.0), 150.0, 799, 53)};
  std::vector<uint32_t> routed;
  std::vector<uint32_t> fused;
  for (const PartitionPlan& plan : plans) {
    ASSERT_TRUE(plan.Validate().ok()) << plan.ToString();
    const PartitionRouter router(plan);
    for (const Point& probe : RoutingProbes(plan, 23)) {
      const double* p = probe.data();
      std::vector<uint32_t> expected_support;
      std::vector<uint32_t> expected_core;
      for (uint32_t id = 0; id < plan.num_cells(); ++id) {
        if (plan.ContainsCore(id, p)) {
          expected_core.push_back(id);
        } else if (plan.SupportBounds(id).Contains(p)) {
          expected_support.push_back(id);
        }
      }
      routed.clear();
      router.RouteSupport(p, &routed);
      EXPECT_EQ(routed, expected_support)
          << plan.ToString() << " point " << probe.ToString();
      // Probes beyond the domain (on outer r-extension edges) have no core
      // cell; RouteCore and Route abort on them.
      if (!plan.domain().Contains(p)) continue;
      ASSERT_EQ(expected_core.size(), 1u) << probe.ToString();
      EXPECT_EQ(router.RouteCore(p), expected_core[0]) << probe.ToString();
      fused.clear();
      EXPECT_EQ(router.Route(p, &fused), expected_core[0])
          << probe.ToString();
      EXPECT_EQ(fused, routed) << probe.ToString();
    }
  }
}

TEST(PartitionRouterTest, FarAwayPointsRouteNowhere) {
  // Bin lookup clamps in double: a coordinate far outside the domain lands
  // in an edge bin, has no support cell and still fails the coverage check.
  const PartitionPlan plan = TwoByTwoPlan();
  const PartitionRouter router(plan);
  for (double x : {1e300, -1e300}) {
    const double far[2] = {x, 5.0};
    std::vector<uint32_t> support;
    router.RouteSupport(far, &support);
    EXPECT_TRUE(support.empty());
    EXPECT_DEATH(router.RouteCore(far), "not covered");
    EXPECT_DEATH(router.Route(far, &support), "not covered");
  }
}

TEST(PartitionRouterTest, SupportCoversAllForeignNeighbors) {
  // Lemma 3.1 sufficiency at the plan level: if q is within r of p, then q
  // is either in p's core cell or a support point of it.
  const Rect domain = Rect::Cube(2, 0.0, 40.0);
  const double radius = 2.5;
  const PartitionPlan plan(domain, radius, EquiWidthCells(domain, 9));
  const PartitionRouter router(plan);
  const Dataset data = GenerateUniform(800, domain, 29);
  std::vector<uint32_t> support;
  for (size_t i = 0; i < data.size(); ++i) {
    const double* p = data[static_cast<PointId>(i)];
    const uint32_t home = router.RouteCore(p);
    for (size_t j = 0; j < data.size(); ++j) {
      if (i == j) continue;
      const double* q = data[static_cast<PointId>(j)];
      if (!WithinDistance(p, q, 2, radius)) continue;
      if (plan.ContainsCore(home, q)) continue;
      support.clear();
      router.RouteSupport(q, &support);
      EXPECT_NE(std::find(support.begin(), support.end(), home),
                support.end())
          << "neighbor " << j << " of point " << i
          << " not replicated into cell " << home;
    }
  }
}

TEST(PartitionRouterTest, WorksWithManyIrregularCells) {
  // A 1×N strip plan: thin cells stress the router's bin index.
  const Rect domain = Rect::Cube(2, 0.0, 100.0);
  std::vector<Rect> cells;
  const int strips = 50;
  for (int s = 0; s < strips; ++s) {
    cells.push_back(Rect(Point{s * 2.0, 0.0}, Point{(s + 1) * 2.0, 100.0}));
  }
  const PartitionPlan plan(domain, 1.0, cells);
  ASSERT_TRUE(plan.Validate().ok());
  const PartitionRouter router(plan);
  const Dataset data = GenerateUniform(1000, domain, 31);
  std::vector<uint32_t> support;
  for (size_t i = 0; i < data.size(); ++i) {
    const double* p = data[static_cast<PointId>(i)];
    const uint32_t cell = router.RouteCore(p);
    EXPECT_TRUE(plan.ContainsCore(cell, p));
    support.clear();
    EXPECT_EQ(router.Route(p, &support), cell);
  }
}

}  // namespace
}  // namespace dod
