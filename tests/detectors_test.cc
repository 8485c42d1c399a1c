// Copyright 2026 The DOD Authors.
//
// Correctness of the centralized detectors. The central property: on any
// input, Nested-Loop and Cell-Based return exactly the points with
// |N_r(p)| < k — the same set as the deterministic brute-force oracle —
// including when support points are present (verdicts only for core points,
// neighbors counted among all points).

#include <gtest/gtest.h>

#include <cmath>

#include "data/generators.h"
#include "data/tiger_like.h"
#include "detection/brute_force.h"
#include "detection/cell_based.h"
#include "detection/detector.h"
#include "detection/nested_loop.h"

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

TEST(CellGeometry, SideAndRingsMatchPaperIn2D) {
  // side = r/(2√2), rings = 3 → the 7×7 block of Lemma 4.2.
  EXPECT_NEAR(CellBasedCellSide(5.0, 2), 5.0 / (2.0 * std::sqrt(2.0)), 1e-12);
  EXPECT_EQ(CellBasedNeighborRings(2), 3);
  EXPECT_EQ(CellBasedNeighborRings(1), 3);
  EXPECT_EQ(CellBasedNeighborRings(4), 5);
}

}  // namespace
}  // namespace dod
