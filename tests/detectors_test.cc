// Copyright 2026 The DOD Authors.
//
// Correctness of the centralized detectors. The central property: on any
// input, Nested-Loop and Cell-Based return exactly the points with
// |N_r(p)| < k — the same set as the deterministic brute-force oracle —
// including when support points are present (verdicts only for core points,
// neighbors counted among all points).

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "data/tiger_like.h"
#include "detection/brute_force.h"
#include "detection/cell_based.h"
#include "detection/detector.h"
#include "detection/grid.h"
#include "detection/nested_loop.h"
#include "kernels/distance_kernels.h"

namespace dod {
namespace {

std::vector<uint32_t> Oracle(const Dataset& data, size_t num_core,
                             const DetectionParams& params) {
  BruteForceDetector oracle;
  return oracle.DetectOutliers(data, num_core, params, nullptr);
}

TEST(BruteForceTest, HandDrawnExample) {
  // Three points near the origin, one isolated point.
  Dataset data(2);
  data.Append(Point{0.0, 0.0});
  data.Append(Point{1.0, 0.0});
  data.Append(Point{0.0, 1.0});
  data.Append(Point{100.0, 100.0});
  DetectionParams params{/*radius=*/2.0, /*min_neighbors=*/2};
  EXPECT_EQ(Oracle(data, data.size(), params), (std::vector<uint32_t>{3}));
}

TEST(BruteForceTest, NeighborTestIsClosedAtRadius) {
  Dataset data(2);
  data.Append(Point{0.0, 0.0});
  data.Append(Point{5.0, 0.0});  // exactly r away
  DetectionParams params{5.0, 1};
  EXPECT_TRUE(Oracle(data, data.size(), params).empty());
  params.radius = 4.9999;
  EXPECT_EQ(Oracle(data, data.size(), params).size(), 2u);
}

TEST(BruteForceTest, SelfIsNotANeighbor) {
  Dataset data(2);
  data.Append(Point{0.0, 0.0});
  DetectionParams params{5.0, 1};
  EXPECT_EQ(Oracle(data, data.size(), params), (std::vector<uint32_t>{0}));
}

TEST(BruteForceTest, DuplicatePointsAreNeighbors) {
  Dataset data(2);
  data.Append(Point{1.0, 1.0});
  data.Append(Point{1.0, 1.0});
  DetectionParams params{0.5, 1};
  EXPECT_TRUE(Oracle(data, data.size(), params).empty());
}

TEST(BruteForceTest, OnlyCorePointsGetVerdicts) {
  Dataset data(2);
  data.Append(Point{0.0, 0.0});     // core, isolated except support
  data.Append(Point{50.0, 50.0});   // support (isolated too, but no verdict)
  DetectionParams params{5.0, 1};
  const std::vector<uint32_t> outliers = Oracle(data, /*num_core=*/1, params);
  EXPECT_EQ(outliers, (std::vector<uint32_t>{0}));
}

TEST(BruteForceTest, SupportPointsCountAsNeighbors) {
  Dataset data(2);
  data.Append(Point{0.0, 0.0});   // core
  data.Append(Point{1.0, 0.0});   // support within r
  DetectionParams params{2.0, 1};
  EXPECT_TRUE(Oracle(data, /*num_core=*/1, params).empty());
}

// ---------------------------------------------------------------------------
// Property tests: NL and CB vs the oracle across distributions/parameters.
// ---------------------------------------------------------------------------

struct AgreementCase {
  const char* name;
  double density;
  double radius;
  int min_neighbors;
  size_t n;
};

class DetectorAgreement : public testing::TestWithParam<AgreementCase> {};

TEST_P(DetectorAgreement, NestedLoopMatchesOracleOnUniform) {
  const AgreementCase& c = GetParam();
  const Dataset data =
      GenerateUniform(c.n, DomainForDensity(c.n, c.density), 1234);
  DetectionParams params{c.radius, c.min_neighbors};
  NestedLoopDetector detector;
  EXPECT_EQ(detector.DetectOutliers(data, data.size(), params),
            Oracle(data, data.size(), params));
}

TEST_P(DetectorAgreement, CellBasedMatchesOracleOnUniform) {
  const AgreementCase& c = GetParam();
  const Dataset data =
      GenerateUniform(c.n, DomainForDensity(c.n, c.density), 1234);
  DetectionParams params{c.radius, c.min_neighbors};
  CellBasedDetector detector;
  EXPECT_EQ(detector.DetectOutliers(data, data.size(), params),
            Oracle(data, data.size(), params));
}

TEST_P(DetectorAgreement, BothMatchOracleOnClusteredWithSupport) {
  const AgreementCase& c = GetParam();
  SettlementProfile profile;
  Dataset data = GenerateSettlements(c.n, DomainForDensity(c.n, c.density),
                                     profile, 4321);
  // Declare the last 20% support points.
  const size_t num_core = data.size() * 4 / 5;
  DetectionParams params{c.radius, c.min_neighbors};
  const std::vector<uint32_t> expected = Oracle(data, num_core, params);
  NestedLoopDetector nl;
  CellBasedDetector cb;
  EXPECT_EQ(nl.DetectOutliers(data, num_core, params), expected);
  EXPECT_EQ(cb.DetectOutliers(data, num_core, params), expected);
}

INSTANTIATE_TEST_SUITE_P(
    DensityAndParamSweep, DetectorAgreement,
    testing::Values(
        AgreementCase{"sparsest", 0.005, 5.0, 4, 1500},
        AgreementCase{"very_sparse", 0.004, 5.0, 4, 800},
        AgreementCase{"sparse", 0.02, 5.0, 4, 1500},
        AgreementCase{"middle", 0.08, 5.0, 4, 1500},
        AgreementCase{"dense", 0.4, 5.0, 4, 2000},
        AgreementCase{"very_dense", 2.0, 5.0, 4, 2000},
        AgreementCase{"densest", 2.56, 5.0, 4, 2000},
        AgreementCase{"tight_radius", 0.08, 1.0, 4, 1500},
        AgreementCase{"wide_radius", 0.08, 20.0, 4, 1500},
        AgreementCase{"k_one", 0.05, 5.0, 1, 1200},
        AgreementCase{"k_large", 0.08, 5.0, 25, 1500}),
    [](const testing::TestParamInfo<AgreementCase>& info) {
      return info.param.name;
    });

TEST(DetectorEdgeCases, EmptyDataset) {
  Dataset data(2);
  DetectionParams params{5.0, 4};
  NestedLoopDetector nl;
  CellBasedDetector cb;
  EXPECT_TRUE(nl.DetectOutliers(data, 0, params).empty());
  EXPECT_TRUE(cb.DetectOutliers(data, 0, params).empty());
}

// Regression: at r = 1 the cell side is ~0.35, so these points sit ~2.8e10
// cells apart — beyond int32 cell keys, which used to saturate and alias
// all six into one "red" cell (1 outlier reported instead of 6).
TEST(DetectorEdgeCases, CellBasedNeverAliasesOutOfRangeCells) {
  Dataset data(2);
  for (int i = 0; i < 6; ++i) data.Append(Point{i * 1e10, 0.0});
  DetectionParams params{1.0, 4};
  const std::vector<uint32_t> expected = Oracle(data, data.size(), params);
  ASSERT_EQ(expected.size(), 6u);
  NestedLoopDetector nl;
  CellBasedDetector cb;
  EXPECT_EQ(nl.DetectOutliers(data, data.size(), params), expected);
  EXPECT_EQ(cb.DetectOutliers(data, data.size(), params), expected);
  // Support points far outside the range are counted too.
  EXPECT_EQ(cb.DetectOutliers(data, 3, params), Oracle(data, 3, params));
}

TEST(DetectorEdgeCases, AllPointsIdentical) {
  Dataset data(2);
  for (int i = 0; i < 10; ++i) data.Append(Point{3.0, 3.0});
  DetectionParams params{1.0, 4};
  NestedLoopDetector nl;
  CellBasedDetector cb;
  EXPECT_TRUE(nl.DetectOutliers(data, data.size(), params).empty());
  EXPECT_TRUE(cb.DetectOutliers(data, data.size(), params).empty());
}

TEST(DetectorEdgeCases, KLargerThanDatasetFlagsEverything) {
  const Dataset data = GenerateUniform(20, Rect::Cube(2, 0.0, 1.0), 5);
  DetectionParams params{100.0, 50};
  NestedLoopDetector nl;
  CellBasedDetector cb;
  EXPECT_EQ(nl.DetectOutliers(data, data.size(), params).size(), 20u);
  EXPECT_EQ(cb.DetectOutliers(data, data.size(), params).size(), 20u);
}

TEST(DetectorEdgeCases, CorridorDataAgreement) {
  const Dataset data = GenerateTigerLike(2000, 777);
  DetectionParams params{5.0, 4};
  const std::vector<uint32_t> expected = Oracle(data, data.size(), params);
  NestedLoopDetector nl;
  CellBasedDetector cb;
  EXPECT_EQ(nl.DetectOutliers(data, data.size(), params), expected);
  EXPECT_EQ(cb.DetectOutliers(data, data.size(), params), expected);
}

TEST(DetectorEdgeCases, ThreeDimensionalAgreement) {
  const Dataset data = GenerateUniform(1200, Rect::Cube(3, 0.0, 40.0), 31);
  DetectionParams params{3.0, 4};
  const std::vector<uint32_t> expected = Oracle(data, data.size(), params);
  NestedLoopDetector nl;
  CellBasedDetector cb;
  EXPECT_EQ(nl.DetectOutliers(data, data.size(), params), expected);
  EXPECT_EQ(cb.DetectOutliers(data, data.size(), params), expected);
}

TEST(DetectorCounters, CellBasedReportsPruning) {
  // Dense data: red/pink pruning should decide everything.
  const Dataset data = GenerateUniform(3000, DomainForDensity(3000, 2.0), 8);
  DetectionParams params{5.0, 4};
  CellBasedDetector cb;
  Counters counters;
  cb.DetectOutliers(data, data.size(), params, &counters);
  EXPECT_GT(counters.Get("cell_based.cells"), 0u);
  EXPECT_GT(counters.Get("cell_based.red_cells") +
                counters.Get("cell_based.pink_cells"),
            0u);
  EXPECT_EQ(counters.Get("cell_based.probed_cells"), 0u);
}

TEST(DetectorCounters, NestedLoopCountsDistanceEvals) {
  const Dataset data = GenerateUniform(500, DomainForDensity(500, 0.1), 9);
  DetectionParams params{5.0, 4};
  NestedLoopDetector nl;
  Counters counters;
  nl.DetectOutliers(data, data.size(), params, &counters);
  EXPECT_GT(counters.Get("nested_loop.distance_evals"), 0u);
}

TEST(DetectorFactory, MakesAllKinds) {
  EXPECT_EQ(MakeDetector(AlgorithmKind::kNestedLoop)->name(), "Nested-Loop");
  EXPECT_EQ(MakeDetector(AlgorithmKind::kCellBased)->name(), "Cell-Based");
  EXPECT_EQ(MakeDetector(AlgorithmKind::kBruteForce)->name(), "BruteForce");
  EXPECT_EQ(MakeDetector(AlgorithmKind::kCellBased)->kind(),
            AlgorithmKind::kCellBased);
}

TEST(DetectorDeterminism, NestedLoopStableAcrossCalls) {
  const Dataset data = GenerateUniform(1000, DomainForDensity(1000, 0.05), 2);
  DetectionParams params{5.0, 4};
  NestedLoopDetector nl;
  EXPECT_EQ(nl.DetectOutliers(data, data.size(), params),
            nl.DetectOutliers(data, data.size(), params));
}

// Nested-Loop as a local-index loop: query i is read through the view, its
// own slot is found by scanning the segment's ids, and its start offset is
// the i-th draw of the seed's stream — the same offsets the detector draws
// before sweeping its segment in slot order.
std::vector<uint32_t> ReferenceNestedLoop(const PartitionView& view,
                                          const DetectionParams& params,
                                          const KernelOps& ops,
                                          uint64_t* evals) {
  Rng rng(params.seed);
  const SoABlock& probes = view.probes();
  const size_t begin = view.probe_begin();
  const size_t end = view.probe_end();
  const double sq_radius = params.radius * params.radius;
  const int k = params.min_neighbors;
  std::vector<uint32_t> outliers;
  for (uint32_t i = 0; i < view.num_core(); ++i) {
    size_t self = begin;
    while (probes.IdAt(self) != i) ++self;
    const size_t start = begin + rng.NextBounded(view.size());
    int neighbors = ops.count_within_radius(probes, start, end, view.point(i),
                                            sq_radius, self, k, evals);
    if (neighbors < k) {
      neighbors += ops.count_within_radius(probes, begin, start,
                                           view.point(i), sq_radius, self,
                                           k - neighbors, evals);
    }
    if (neighbors < k) outliers.push_back(i);
  }
  return outliers;
}

TEST(NestedLoopEquivalence, SlotOrderSweepMatchesLocalIndexLoop) {
  // Same outliers and same nested_loop.distance_evals as the local-index
  // loop, on views with and without support points, for k = 1..8, under
  // both kernel modes (each against the reference over its own kernels,
  // scalar's per-pair schedule included).
  const Dataset tiger = GenerateTigerLike(1500, 5);
  const Dataset uniform =
      GenerateUniform(1200, DomainForDensity(1200, 0.05), 6);
  for (const Dataset* data : {&tiger, &uniform}) {
    for (size_t num_core : {data->size(), data->size() * 2 / 3}) {
      for (int k = 1; k <= 8; ++k) {
        const std::vector<uint32_t> oracle =
            Oracle(*data, num_core, DetectionParams{5.0, k});
        for (KernelMode mode : {KernelMode::kScalar, KernelMode::kAuto}) {
          DetectionParams params{5.0, k};
          params.seed = 100 + k;
          params.kernels = mode;
          TaskArena arena(*data);
          arena.BeginCell();
          for (PointId id = 0; id < data->size(); ++id) arena.AddPoint(id);
          arena.EndCell(num_core, params.seed ^ kArenaSeedSalt);
          ASSERT_TRUE(arena.TryBuildProbes().ok());
          const PartitionView view = arena.View(0);

          uint64_t want_evals = 0;
          const std::vector<uint32_t> want = ReferenceNestedLoop(
              view, params, GetKernelOps(mode), &want_evals);
          Counters counters;
          const std::vector<uint32_t> got =
              NestedLoopDetector().DetectOutliers(view, params, &counters);
          const std::string label =
              "n=" + std::to_string(data->size()) +
              " core=" + std::to_string(num_core) + " k=" +
              std::to_string(k) + " " + KernelModeName(mode);
          EXPECT_EQ(got, want) << label;
          EXPECT_EQ(counters.Get("nested_loop.distance_evals"), want_evals)
              << label;
          EXPECT_EQ(got, oracle) << label;
        }
      }
    }
  }
}

TEST(NestedLoopEquivalence, PipelineMatchesOracleAtOneAndFourThreads) {
  // Every partition on Nested-Loop, with supporting areas: the outliers
  // are the oracle's and the evaluation count does not depend on the
  // thread count.
  const Dataset data = GenerateTigerLike(6000, 8);
  for (int k = 1; k <= 8; ++k) {
    DetectionParams params{5.0, k};
    const std::vector<uint32_t> oracle = Oracle(data, data.size(), params);
    uint64_t evals_at_one = 0;
    for (int threads : {1, 4}) {
      DodConfig config = DodConfig::Baseline(params, StrategyKind::kCDriven,
                                             AlgorithmKind::kNestedLoop);
      config.num_threads = threads;
      const Result<DodResult> run = DodPipeline(config).Run(data);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run.value().outliers,
                std::vector<PointId>(oracle.begin(), oracle.end()))
          << "k=" << k << " threads=" << threads;
      const uint64_t evals =
          run.value().detect_stats.counters.Get("nested_loop.distance_evals");
      EXPECT_GT(evals, 0u) << "k=" << k;
      if (threads == 1) {
        evals_at_one = evals;
      } else {
        EXPECT_EQ(evals, evals_at_one) << "k=" << k;
      }
    }
  }
}

// Cell-Based prunes a view whose bounding box fits CellCountTable's bound
// from the summed-area table, and any other view from the hashed grid;
// Index::kHashed takes the grid for every view. The two must agree on the
// outliers and on every cell_based.* counter.
constexpr const char* kCellBasedCounters[] = {
    "cell_based.cells",          "cell_based.red_cells",
    "cell_based.pink_cells",     "cell_based.outlier_cells",
    "cell_based.probed_cells",   "cell_based.distance_evals"};

struct CellBasedRun {
  std::vector<uint32_t> outliers;
  Counters counters;
};

// Cell-Based over one arena cell holding all of `data`, the first
// `num_core` points core; `takes_table` reports whether the view's box
// fits the table.
CellBasedRun RunCellBased(const Dataset& data, size_t num_core,
                          const DetectionParams& params,
                          CellBasedDetector::Index index,
                          bool* takes_table = nullptr) {
  TaskArena arena(data, /*budget=*/nullptr, params.kernels);
  arena.BeginCell();
  for (PointId id = 0; id < data.size(); ++id) arena.AddPoint(id);
  arena.EndCell(num_core, params.seed ^ kArenaSeedSalt);
  EXPECT_TRUE(arena.TryBuildProbes().ok());
  const PartitionView view = arena.View(0);
  if (takes_table != nullptr) {
    *takes_table = CellCountTable::Accepts(
        view.probe_lanes().Bounds(view.probe_begin(), view.probe_end()),
        CellBasedCellSide(params.radius, data.dims()), view.size());
  }
  CellBasedRun run;
  run.outliers =
      CellBasedDetector(index).DetectOutliers(view, params, &run.counters);
  return run;
}

TEST(CellBasedIndexes, TableAndGridAgreeOnEveryCounter) {
  // Views whose boxes both paths accept: dense and mid-density uniform,
  // clustered settlements and a 3-d cube, with and without support points,
  // across k and both kernel modes. Together they reach all four verdicts.
  SettlementProfile profile;
  const Dataset inputs[] = {
      GenerateUniform(3000, DomainForDensity(3000, 2.0), 21),
      GenerateUniform(2000, DomainForDensity(2000, 0.2), 22),
      GenerateSettlements(2500, DomainForDensity(2500, 0.4), profile, 23),
      GenerateUniform(1500, Rect::Cube(3, 0.0, 20.0), 24)};
  Counters totals;
  for (const Dataset& data : inputs) {
    for (size_t num_core : {data.size(), data.size() * 4 / 5}) {
      for (int k : {1, 4, 8}) {
        for (KernelMode mode : {KernelMode::kScalar, KernelMode::kAuto}) {
          DetectionParams params{5.0, k};
          params.kernels = mode;
          const std::string label =
              "n=" + std::to_string(data.size()) + " dims=" +
              std::to_string(data.dims()) + " core=" +
              std::to_string(num_core) + " k=" + std::to_string(k) + " " +
              KernelModeName(mode);
          bool takes_table = false;
          const CellBasedRun table = RunCellBased(
              data, num_core, params, CellBasedDetector::Index::kAuto,
              &takes_table);
          ASSERT_TRUE(takes_table) << label;
          const CellBasedRun grid = RunCellBased(
              data, num_core, params, CellBasedDetector::Index::kHashed);
          EXPECT_EQ(table.outliers, Oracle(data, num_core, params)) << label;
          EXPECT_EQ(grid.outliers, table.outliers) << label;
          for (const char* name : kCellBasedCounters) {
            EXPECT_EQ(table.counters.Get(name), grid.counters.Get(name))
                << label << " " << name;
            totals.Increment(name, table.counters.Get(name));
          }
        }
      }
    }
  }
  for (const char* name : kCellBasedCounters) {
    EXPECT_GT(totals.Get(name), 0u) << name;
  }
}

TEST(CellBasedIndexes, BothSidesOfTheBoundMatchTheOracle) {
  // Uniform data on each side of the bound, with support points.
  for (const double density : {0.005, 0.02, 0.4, 2.0}) {
    const Dataset data =
        GenerateUniform(1500, DomainForDensity(1500, density), 31);
    const DetectionParams params{5.0, 4};
    bool takes_table = false;
    const CellBasedRun run =
        RunCellBased(data, 1200, params, CellBasedDetector::Index::kAuto,
                     &takes_table);
    EXPECT_EQ(takes_table, density >= 0.4) << "density " << density;
    EXPECT_EQ(run.outliers, Oracle(data, 1200, params))
        << "density " << density;
  }
  // Boxes one cell inside and one cell outside the bound (4·n + 64 padded
  // entries) at cell side 1: a row of points 0.5 apart and a far point
  // that sets the box, in 1-d and 2-d.
  struct Edge {
    int dims;
    double top;
    bool inside;
  };
  for (const Edge& edge : {Edge{1, 102.5, true}, Edge{1, 103.5, false},
                           Edge{2, 10.5, true}, Edge{2, 11.5, false}}) {
    const size_t n = edge.dims == 1 ? 10 : 20;
    Dataset data(edge.dims);
    for (size_t i = 0; i + 1 < n; ++i) {
      const double x = 0.5 * static_cast<double>(i);
      data.Append(edge.dims == 1 ? Point{x} : Point{x, x});
    }
    data.Append(edge.dims == 1 ? Point{edge.top} : Point{edge.top, 10.5});
    const std::string label = std::to_string(edge.dims) + "-d top " +
                              std::to_string(edge.top);
    for (int k : {1, 2, 4}) {
      // Side r / (2·sqrt(d)) = 1.
      const DetectionParams params{2.0 * std::sqrt(edge.dims), k};
      for (size_t num_core : {n, n - 3}) {
        bool takes_table = false;
        const CellBasedRun run =
            RunCellBased(data, num_core, params,
                         CellBasedDetector::Index::kAuto, &takes_table);
        EXPECT_EQ(takes_table, edge.inside) << label;
        EXPECT_EQ(run.outliers, Oracle(data, num_core, params))
            << label << " k=" << k;
        const CellBasedRun grid = RunCellBased(
            data, num_core, params, CellBasedDetector::Index::kHashed);
        for (const char* name : kCellBasedCounters) {
          EXPECT_EQ(run.counters.Get(name), grid.counters.Get(name))
              << label << " k=" << k << " " << name;
        }
      }
    }
  }
}

TEST(CellBasedIndexes, PipelineMatchesOracleAtOneAndFourThreads) {
  // Every partition on Cell-Based with supporting areas: dense data whose
  // partitions take the table, sparse data whose partitions take the grid,
  // and clustered data holding both. Outliers are the oracle's, and the
  // counters depend on neither the thread count nor the kernels.
  SettlementProfile profile;
  const Dataset inputs[] = {
      GenerateUniform(20000, DomainForDensity(20000, 2.0), 41),
      GenerateUniform(6000, DomainForDensity(6000, 0.01), 42),
      GenerateSettlements(12000, DomainForDensity(12000, 0.2), profile, 43)};
  for (const Dataset& data : inputs) {
    const DetectionParams base{5.0, 4};
    const std::vector<uint32_t> oracle = Oracle(data, data.size(), base);
    Counters first;
    bool have_first = false;
    for (KernelMode mode : {KernelMode::kScalar, KernelMode::kAuto}) {
      for (int threads : {1, 4}) {
        const std::string label = "n=" + std::to_string(data.size()) +
                                  " threads=" + std::to_string(threads) +
                                  " " + KernelModeName(mode);
        DetectionParams params = base;
        params.kernels = mode;
        DodConfig config = DodConfig::Baseline(params, StrategyKind::kCDriven,
                                               AlgorithmKind::kCellBased);
        config.num_threads = threads;
        const Result<DodResult> run = DodPipeline(config).Run(data);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        EXPECT_EQ(run.value().outliers,
                  std::vector<PointId>(oracle.begin(), oracle.end()))
            << label;
        const Counters& counters = run.value().detect_stats.counters;
        EXPECT_GT(counters.Get("cell_based.cells"), 0u) << label;
        if (!have_first) {
          first = counters;
          have_first = true;
          continue;
        }
        for (const char* name : kCellBasedCounters) {
          EXPECT_EQ(counters.Get(name), first.Get(name))
              << label << " " << name;
        }
      }
    }
  }
}

TEST(CellGeometry, SideAndRingsMatchPaperIn2D) {
  // side = r/(2√2), rings = 3 → the 7×7 block of Lemma 4.2.
  EXPECT_NEAR(CellBasedCellSide(5.0, 2), 5.0 / (2.0 * std::sqrt(2.0)), 1e-12);
  EXPECT_EQ(CellBasedNeighborRings(2), 3);
  EXPECT_EQ(CellBasedNeighborRings(1), 3);
  EXPECT_EQ(CellBasedNeighborRings(4), 5);
}

}  // namespace
}  // namespace dod
