// Copyright 2026 The DOD Authors.
//
// Ablation — allocation policy (Sec. V-A, step 3).
//
// The paper adopts a polynomial-time multi-bin-packing approximation to
// assign partitions to reducers. This sweep compares the realized reduce
// makespan under round-robin striping (Hadoop default), LPT greedy, and
// k-way Karmarkar–Karp differencing.

#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "data/geo_like.h"

int main() {
  const size_t n = dod::bench::ScaledN(60000);
  const dod::DetectionParams params{5.0, 4};
  const dod::Dataset data =
      dod::GenerateHierarchical(dod::MapLevel::kNewEngland, n / 3, 121);

  dod::bench::PrintHeader(
      "Ablation — reducer allocation policy (DMT plan, same partitions)",
      "Makespan of the detection reduce stage under each packing policy.",
      dod::bench::TimeBase::kSimulated);

  std::printf("%-16s %14s %14s %12s\n", "policy", "reduce (s)",
              "est. imbalance", "realized");
  for (dod::PackingPolicy policy :
       {dod::PackingPolicy::kRoundRobin, dod::PackingPolicy::kLpt,
        dod::PackingPolicy::kKarmarkarKarp}) {
    dod::DodConfig config =
        dod::bench::BenchConfig(dod::StrategyKind::kDmt,
                                dod::AlgorithmKind::kCellBased, params,
                                data.size());
    config.packing = policy;
    dod::DodPipeline pipeline(config);
    const dod::DodResult result = pipeline.RunOrDie(data);
    const double estimated = dod::ImbalanceFactor(
        result.plan.ReducerLoads(config.num_reduce_tasks));
    const double realized =
        dod::ImbalanceFactor(result.detect_stats.reduce_task_seconds);
    std::printf("%-16s %14.4f %13.2fx %11.2fx\n",
                dod::PackingPolicyName(policy),
                result.breakdown.detect.reduce_seconds, estimated, realized);
  }
  return 0;
}
