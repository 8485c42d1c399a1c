// Copyright 2026 The DOD Authors.
//
// Cross-cutting invariants that tie the accounting together: candidate
// bookkeeping of the Domain verification job, support-replication bounds,
// cost-model monotonicity, and block-count independence.

#include <gtest/gtest.h>

#include <cmath>

#include "core/pipeline.h"
#include "data/generators.h"
#include "detection/cost_model.h"

namespace dod {
namespace {

TEST(DomainInvariants, CandidatesEqualRescuedPlusReported) {
  // Job 1 emits candidates (local outliers); job 2 either rescues a
  // candidate (neighbors found across the border) or confirms it. The
  // counters must balance exactly.
  const Dataset data =
      GenerateUniform(3000, DomainForDensity(3000, 0.03), 51);
  DodConfig config = DodConfig::Baseline(DetectionParams{5.0, 4},
                                         StrategyKind::kDomain,
                                         AlgorithmKind::kNestedLoop);
  config.sampler.rate = 0.3;
  const DodResult result = DodPipeline(config).RunOrDie(data);
  const uint64_t candidates =
      result.detect_stats.counters.Get("domain.candidates");
  const uint64_t rescued =
      result.verify_stats.counters.Get("domain.rescued_candidates");
  EXPECT_EQ(candidates, rescued + result.outliers.size());
  EXPECT_GT(candidates, 0u);
}

TEST(SupportInvariants, ReplicationIsBoundedByNeighborCells) {
  // With supporting areas of width r and cells wider than 2r in every
  // dimension, a point can be a support point of at most 3^d - 1 cells, so
  // shuffled records ≤ n · 3^d.
  const Dataset data =
      GenerateUniform(4000, DomainForDensity(4000, 0.05), 53);
  DodConfig config = DodConfig::Baseline(DetectionParams{5.0, 4},
                                         StrategyKind::kUniSpace,
                                         AlgorithmKind::kCellBased);
  config.target_partitions = 16;  // 4x4 grid, cells ≫ 2r wide
  config.sampler.rate = 0.3;
  const DodResult result = DodPipeline(config).RunOrDie(data);
  EXPECT_LE(result.detect_stats.records_shuffled, data.size() * 9);
  EXPECT_GE(result.detect_stats.records_shuffled, data.size());
}

TEST(CostModelInvariants, PlanningCostsMonotoneAtFixedDensity) {
  // Growing a partition without changing its density must never make it
  // cheaper. (At *fixed area* more points can legitimately reduce the
  // Cell-Based cost — extra density activates the Lemma 4.2 pruning.)
  const DetectionParams params{5.0, 4};
  for (AlgorithmKind kind :
       {AlgorithmKind::kNestedLoop, AlgorithmKind::kCellBased}) {
    for (double density : {0.005, 0.08, 0.5}) {
      double previous = -1.0;
      for (size_t n : {100u, 1000u, 10000u, 100000u}) {
        const double cost =
            PlanningCost(kind, PartitionStats{n, n / density, 2}, params);
        EXPECT_GT(cost, previous)
            << AlgorithmKindName(kind) << " density=" << density
            << " n=" << n;
        previous = cost;
      }
    }
  }
}

TEST(CostModelInvariants, DensityCanLegitimatelyReduceCellBasedCost) {
  // The Lemma 4.2 behavior the previous test must not forbid: at fixed
  // area, enough extra points flip the partition into the dense-pruning
  // regime and the modeled cost drops to linear.
  const DetectionParams params{5.0, 4};
  const double area = 1e5;
  const double middle =
      PlanningCost(AlgorithmKind::kCellBased,
                   PartitionStats{10000, area, 2}, params);  // ρ = 0.1
  const double dense =
      PlanningCost(AlgorithmKind::kCellBased,
                   PartitionStats{100000, area, 2}, params);  // ρ = 1.0
  EXPECT_LT(dense, middle);
}

TEST(CostModelInvariants, ReferenceCostsNonNegativeAndFinite) {
  const DetectionParams params{5.0, 4};
  for (double area : {0.0, 1.0, 1e12}) {
    for (size_t n : {0u, 1u, 7u, 100000u}) {
      const PartitionStats stats{n, area, 2};
      for (AlgorithmKind kind :
           {AlgorithmKind::kNestedLoop, AlgorithmKind::kCellBased,
            AlgorithmKind::kBruteForce}) {
        const double estimate = EstimateCost(kind, stats, params);
        EXPECT_GE(estimate, 0.0);
        EXPECT_TRUE(std::isfinite(estimate));
        const double planning = PlanningCost(kind, stats, params);
        EXPECT_GE(planning, 0.0);
        EXPECT_TRUE(std::isfinite(planning));
      }
    }
  }
}

TEST(PipelineInvariants, ResultsIndependentOfBlockCount) {
  const Dataset data =
      GenerateUniform(2500, DomainForDensity(2500, 0.04), 57);
  DetectionParams params{5.0, 4};
  std::vector<PointId> reference;
  for (size_t blocks : {1u, 4u, 17u, 64u}) {
    DodConfig config = DodConfig::Dmt(params);
    config.num_blocks = blocks;
    config.sampler.rate = 0.3;
    const DodResult result = DodPipeline(config).RunOrDie(data);
    if (reference.empty()) {
      reference = result.outliers;
    } else {
      EXPECT_EQ(result.outliers, reference) << blocks << " blocks";
    }
  }
}

TEST(PipelineInvariants, EveryOutlierIdIsValidAndUnique) {
  const Dataset data = GenerateUniform(3000, DomainForDensity(3000, 0.02),
                                       59);
  DodConfig config = DodConfig::Dmt(DetectionParams{5.0, 4});
  config.sampler.rate = 0.3;
  const DodResult result = DodPipeline(config).RunOrDie(data);
  ASSERT_FALSE(result.outliers.empty());
  for (size_t i = 0; i < result.outliers.size(); ++i) {
    EXPECT_LT(result.outliers[i], data.size());
    if (i > 0) {
      EXPECT_LT(result.outliers[i - 1], result.outliers[i]);
    }
  }
}

TEST(PipelineInvariants, ShuffleByteAccountingMatchesRecordSize) {
  const Dataset data =
      GenerateUniform(2000, DomainForDensity(2000, 0.05), 61);
  DodConfig config = DodConfig::Dmt(DetectionParams{5.0, 4});
  config.sampler.rate = 0.3;
  const DodResult result = DodPipeline(config).RunOrDie(data);
  // Record size: dims doubles + tag + cell id.
  const size_t record_bytes = 2 * sizeof(double) + 1 + sizeof(uint32_t);
  EXPECT_EQ(result.detect_stats.bytes_shuffled,
            result.detect_stats.records_shuffled * record_bytes);
}

}  // namespace
}  // namespace dod
