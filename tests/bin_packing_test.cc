// Copyright 2026 The DOD Authors.
//
// Multi-bin packing for the allocation plan: validity of the assignment,
// balance quality of the policies, and known approximation behaviour.

#include "alloc/bin_packing.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/stats.h"

namespace dod {
namespace {

void ExpectValid(const PackingResult& result,
                 const std::vector<double>& weights, int bins) {
  ASSERT_EQ(result.bin_of.size(), weights.size());
  ASSERT_EQ(result.bin_loads.size(), static_cast<size_t>(bins));
  std::vector<double> recomputed(static_cast<size_t>(bins), 0.0);
  for (size_t i = 0; i < weights.size(); ++i) {
    ASSERT_GE(result.bin_of[i], 0);
    ASSERT_LT(result.bin_of[i], bins);
    recomputed[static_cast<size_t>(result.bin_of[i])] += weights[i];
  }
  for (int b = 0; b < bins; ++b) {
    EXPECT_NEAR(recomputed[static_cast<size_t>(b)],
                result.bin_loads[static_cast<size_t>(b)], 1e-9);
  }
  EXPECT_NEAR(Sum(result.bin_loads), Sum(weights), 1e-9);
}

TEST(BinPackingTest, AllPoliciesProduceValidAssignments) {
  Rng rng(1);
  std::vector<double> weights;
  for (int i = 0; i < 50; ++i) weights.push_back(rng.NextUniform(1.0, 100.0));
  for (PackingPolicy policy :
       {PackingPolicy::kRoundRobin, PackingPolicy::kLpt,
        PackingPolicy::kKarmarkarKarp}) {
    ExpectValid(PackBins(weights, 7, policy), weights, 7);
  }
}

TEST(BinPackingTest, EmptyInput) {
  for (PackingPolicy policy :
       {PackingPolicy::kRoundRobin, PackingPolicy::kLpt,
        PackingPolicy::kKarmarkarKarp}) {
    const PackingResult result = PackBins({}, 3, policy);
    EXPECT_TRUE(result.bin_of.empty());
    EXPECT_DOUBLE_EQ(result.Makespan(), 0.0);
  }
}

TEST(BinPackingTest, SingleBinTakesEverything) {
  const std::vector<double> weights = {3.0, 1.0, 4.0};
  for (PackingPolicy policy :
       {PackingPolicy::kRoundRobin, PackingPolicy::kLpt,
        PackingPolicy::kKarmarkarKarp}) {
    const PackingResult result = PackBins(weights, 1, policy);
    EXPECT_DOUBLE_EQ(result.Makespan(), 8.0);
  }
}

TEST(BinPackingTest, LptSolvesClassicInstanceOptimally) {
  // {7,6,5,4,3,2,1} into 2 bins: optimum makespan 14.
  const std::vector<double> weights = {7, 6, 5, 4, 3, 2, 1};
  const PackingResult result = PackBins(weights, 2, PackingPolicy::kLpt);
  EXPECT_DOUBLE_EQ(result.Makespan(), 14.0);
}

TEST(BinPackingTest, KarmarkarKarpNearOptimalPartition) {
  // {8,7,6,5,4} into 2 bins: optimum makespan 15 (8+7 / 6+5+4). The k-way
  // differencing heuristic lands within one unit of it.
  const std::vector<double> weights = {8, 7, 6, 5, 4};
  const PackingResult kk =
      PackBins(weights, 2, PackingPolicy::kKarmarkarKarp);
  EXPECT_GE(kk.Makespan(), 15.0);   // no schedule beats the optimum
  EXPECT_LE(kk.Makespan(), 16.0);
}

TEST(BinPackingTest, KarmarkarKarpSolvesEasyPerfectSplit) {
  // {4,3,3,2,2,2}: two bins of 8 exist and differencing finds them.
  const std::vector<double> weights = {4, 3, 3, 2, 2, 2};
  const PackingResult kk =
      PackBins(weights, 2, PackingPolicy::kKarmarkarKarp);
  EXPECT_DOUBLE_EQ(kk.Makespan(), 8.0);
}

TEST(BinPackingTest, CostAwarePoliciesBeatRoundRobinOnSkewedInput) {
  // Heavy items first — the worst case for positional striping.
  std::vector<double> weights;
  Rng rng(2);
  for (int i = 0; i < 12; ++i) weights.push_back(1000.0);
  for (int i = 0; i < 120; ++i) weights.push_back(rng.NextUniform(1.0, 10.0));
  const double rr =
      PackBins(weights, 12, PackingPolicy::kRoundRobin).Makespan();
  const double lpt = PackBins(weights, 12, PackingPolicy::kLpt).Makespan();
  const double kk =
      PackBins(weights, 12, PackingPolicy::kKarmarkarKarp).Makespan();
  EXPECT_LT(lpt, rr);
  EXPECT_LT(kk, rr);
}

TEST(BinPackingTest, LptRespectsApproximationBound) {
  // LPT ≤ (4/3 - 1/(3m)) · OPT, and OPT ≥ max(total/m, max item).
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> weights;
    const int n = 20 + static_cast<int>(rng.NextBounded(60));
    for (int i = 0; i < n; ++i) weights.push_back(rng.NextUniform(1.0, 50.0));
    const int bins = 2 + static_cast<int>(rng.NextBounded(8));
    const double lpt = PackBins(weights, bins, PackingPolicy::kLpt).Makespan();
    const double lower = std::max(Sum(weights) / bins, Max(weights));
    EXPECT_LE(lpt, (4.0 / 3.0) * lower + 1e-9);
    EXPECT_GE(lpt, lower - 1e-9);
  }
}

TEST(BinPackingTest, KarmarkarKarpAtLeastAsBalancedAsLptOnAverage) {
  Rng rng(4);
  double kk_total = 0.0, lpt_total = 0.0;
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> weights;
    for (int i = 0; i < 40; ++i) weights.push_back(rng.NextUniform(1.0, 100.0));
    kk_total +=
        PackBins(weights, 6, PackingPolicy::kKarmarkarKarp).Makespan();
    lpt_total += PackBins(weights, 6, PackingPolicy::kLpt).Makespan();
  }
  EXPECT_LE(kk_total, lpt_total * 1.01);
}

TEST(BinPackingTest, MoreBinsThanItems) {
  const std::vector<double> weights = {5.0, 3.0};
  for (PackingPolicy policy :
       {PackingPolicy::kRoundRobin, PackingPolicy::kLpt,
        PackingPolicy::kKarmarkarKarp}) {
    const PackingResult result = PackBins(weights, 5, policy);
    ExpectValid(result, weights, 5);
    EXPECT_DOUBLE_EQ(result.Makespan(), 5.0);
  }
}

TEST(BinPackingTest, PolicyNames) {
  EXPECT_STREQ(PackingPolicyName(PackingPolicy::kRoundRobin), "RoundRobin");
  EXPECT_STREQ(PackingPolicyName(PackingPolicy::kLpt), "LPT");
  EXPECT_STREQ(PackingPolicyName(PackingPolicy::kKarmarkarKarp),
               "KarmarkarKarp");
}

}  // namespace
}  // namespace dod
