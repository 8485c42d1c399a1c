// Copyright 2026 The DOD Authors.
//
// The Sec. IV cost models (Lemmas 4.1 / 4.2) and the Corollary 4.3
// selector: closed-form checks, regime boundaries, monotonicity, and the
// load-balancing observation (equal cardinality ≠ equal cost).

#include "detection/cost_model.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dod {
namespace {

constexpr double kR = 5.0;
constexpr int kK = 4;

DetectionParams Params() { return DetectionParams{kR, kK}; }

PartitionStats Stats(size_t n, double area) { return {n, area, 2}; }

TEST(BallVolumeTest, KnownValues) {
  EXPECT_NEAR(BallVolume(1.0, 1), 2.0, 1e-12);              // segment
  EXPECT_NEAR(BallVolume(1.0, 2), M_PI, 1e-12);             // disk
  EXPECT_NEAR(BallVolume(1.0, 3), 4.0 / 3.0 * M_PI, 1e-12); // sphere
  EXPECT_NEAR(BallVolume(2.0, 2), 4.0 * M_PI, 1e-12);       // r² scaling
}

TEST(NestedLoopCostTest, MatchesLemma41ClosedForm) {
  // Middle regime (k/μ below the full-scan cap): Cost = |D|·A(D)·k/A(p).
  const size_t n = 10000;
  const double area = 1e5;
  const double expected = n * area * kK / (M_PI * kR * kR);
  ASSERT_LT(expected / n, n - 1.0) << "test must stay below the scan cap";
  EXPECT_NEAR(NestedLoopCost(Stats(n, area), Params()), expected,
              expected * 1e-9);
}

TEST(NestedLoopCostTest, SparserIsMoreExpensive) {
  // The Sec. IV-A load-balancing observation: same cardinality, 4× the
  // domain area → 4× the cost (D-Sparse vs D-Dense).
  const size_t n = 10000;
  const double dense_cost = NestedLoopCost(Stats(n, 2.5e4), Params());
  const double sparse_cost = NestedLoopCost(Stats(n, 1e5), Params());
  EXPECT_NEAR(sparse_cost / dense_cost, 4.0, 1e-9);
}

TEST(NestedLoopCostTest, CappedAtFullScan) {
  // When the data is too sparse to ever find k neighbors, each point costs
  // at most n-1 probes.
  const size_t n = 100;
  const double cost = NestedLoopCost(Stats(n, 1e12), Params());
  EXPECT_DOUBLE_EQ(cost, n * (n - 1.0));
}

TEST(NestedLoopCostTest, FlooredAtKProbes) {
  // Even in an arbitrarily dense partition a point needs k probes.
  const size_t n = 1000;
  const double cost = NestedLoopCost(Stats(n, 1e-9), Params());
  EXPECT_DOUBLE_EQ(cost, n * static_cast<double>(kK));
}

TEST(NestedLoopCostTest, TrivialPartitions) {
  EXPECT_DOUBLE_EQ(NestedLoopCost(Stats(0, 100.0), Params()), 0.0);
  EXPECT_DOUBLE_EQ(NestedLoopCost(Stats(1, 100.0), Params()), 1.0);
}

TEST(CellBasedRegimesTest, PaperThresholdsIn2D) {
  const size_t n = 10000;
  // Dense regime iff (9/8)·r²·ρ ≥ k ⇔ ρ ≥ 8k/(9r²) = 0.14222…
  const double rho_dense = 8.0 * kK / (9.0 * kR * kR);
  EXPECT_TRUE(CellBasedDenseRegime(Stats(n, n / (rho_dense * 1.01)), Params()));
  EXPECT_FALSE(
      CellBasedDenseRegime(Stats(n, n / (rho_dense * 0.99)), Params()));
  // Sparse regime iff (49/8)·r²·ρ < k ⇔ ρ < 8k/(49r²) = 0.02612…
  const double rho_sparse = 8.0 * kK / (49.0 * kR * kR);
  EXPECT_TRUE(
      CellBasedSparseRegime(Stats(n, n / (rho_sparse * 0.99)), Params()));
  EXPECT_FALSE(
      CellBasedSparseRegime(Stats(n, n / (rho_sparse * 1.01)), Params()));
}

TEST(CellBasedCostTest, LinearInPrunedRegimes) {
  const size_t n = 10000;
  EXPECT_DOUBLE_EQ(CellBasedCost(Stats(n, n / 1.0), Params()),
                   static_cast<double>(n));  // dense
  EXPECT_DOUBLE_EQ(CellBasedCost(Stats(n, n / 0.001), Params()),
                   static_cast<double>(n));  // very sparse
}

TEST(CellBasedCostTest, MiddleRegimeAddsNestedLoopCost) {
  const size_t n = 10000;
  const double rho = 0.08;  // between the two thresholds
  const PartitionStats stats = Stats(n, n / rho);
  EXPECT_FALSE(CellBasedDenseRegime(stats, Params()));
  EXPECT_FALSE(CellBasedSparseRegime(stats, Params()));
  EXPECT_DOUBLE_EQ(CellBasedCost(stats, Params()),
                   n + NestedLoopCost(stats, Params()));
}

TEST(SelectorTest, Corollary43Choices) {
  const size_t n = 10000;
  EXPECT_EQ(SelectAlgorithm(Stats(n, n / 1.0), Params()),
            AlgorithmKind::kCellBased);  // dense
  EXPECT_EQ(SelectAlgorithm(Stats(n, n / 0.08), Params()),
            AlgorithmKind::kNestedLoop);  // middle
}

TEST(SelectorTest, PlanningDoesNotTrustSparsePruning) {
  // Lemma 4.2's sparse case says Cell-Based is linear below ρ < 0.0261;
  // the planner prices it as quadratic anyway (sample-resolution clumping
  // voids quiet-neighborhood pruning) and therefore keeps Nested-Loop,
  // whose randomized early exit has the same worst case but no indexing.
  const size_t n = 10000;
  EXPECT_TRUE(CellBasedSparseRegime(Stats(n, n / 0.02), Params()));
  EXPECT_TRUE(CellBasedSparseRegime(Stats(n, n / 0.004), Params()));
  EXPECT_EQ(SelectAlgorithm(Stats(n, n / 0.02), Params()),
            AlgorithmKind::kNestedLoop);
  EXPECT_EQ(SelectAlgorithm(Stats(n, n / 0.004), Params()),
            AlgorithmKind::kNestedLoop);
}

TEST(SelectorTest, StrongDenseRegimeHasSafetyMargin) {
  const size_t n = 10000;
  // Dense boundary at ρ = 0.1422; strong-dense at 2x ⇒ ρ = 0.2844.
  EXPECT_TRUE(CellBasedDenseRegime(Stats(n, n / 0.2), Params()));
  EXPECT_FALSE(CellBasedStrongDenseRegime(Stats(n, n / 0.2), Params()));
  EXPECT_TRUE(CellBasedStrongDenseRegime(Stats(n, n / 0.3), Params()));
  EXPECT_EQ(SelectAlgorithm(Stats(n, n / 0.3), Params()),
            AlgorithmKind::kCellBased);
}

TEST(SelectorTest, SelectedAlgorithmHasMinimalPlanningCost) {
  // Def. 3.4: the chosen algorithm minimizes the planner's modeled cost,
  // for any density.
  const size_t n = 5000;
  for (double rho : {0.001, 0.01, 0.03, 0.08, 0.13, 0.2, 1.0, 10.0}) {
    const PartitionStats stats = Stats(n, n / rho);
    const AlgorithmKind chosen = SelectAlgorithm(stats, Params());
    const double chosen_cost = PlanningCost(chosen, stats, Params());
    EXPECT_LE(chosen_cost,
              PlanningCost(AlgorithmKind::kNestedLoop, stats, Params()));
    EXPECT_LE(chosen_cost,
              PlanningCost(AlgorithmKind::kCellBased, stats, Params()));
  }
}

TEST(CostModelTest, EqualCardinalityDoesNotImplyEqualCost) {
  // The paper's headline observation against cardinality-based balancing.
  const size_t n = 20000;
  const double cost_sparse = NestedLoopCost(Stats(n, n / 0.03), Params());
  const double cost_dense = NestedLoopCost(Stats(n, n / 0.3), Params());
  EXPECT_GT(cost_sparse, 5.0 * cost_dense);
}

TEST(CostModelTest, BruteForceIsQuadratic) {
  EXPECT_DOUBLE_EQ(
      EstimateCost(AlgorithmKind::kBruteForce, Stats(100, 1.0), Params()),
      100.0 * 99.0);
}

TEST(CostModelTest, ZeroAreaPartitionIsTreatedAsDense) {
  // Degenerate partitions (all points identical) must not divide by zero
  // and should be cheap for both algorithms.
  const PartitionStats stats = Stats(1000, 0.0);
  EXPECT_DOUBLE_EQ(NestedLoopCost(stats, Params()), 1000.0 * kK);
  EXPECT_DOUBLE_EQ(CellBasedCost(stats, Params()), 1000.0);
}

TEST(CostModelTest, ThreeDimensionalRegimesGeneralize) {
  const size_t n = 10000;
  DetectionParams params{2.0, 4};
  PartitionStats dense{n, n / 50.0, 3};
  PartitionStats sparse{n, n / 1e-4, 3};
  EXPECT_TRUE(CellBasedDenseRegime(dense, params));
  EXPECT_TRUE(CellBasedSparseRegime(sparse, params));
}

}  // namespace
}  // namespace dod
