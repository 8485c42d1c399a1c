// Copyright 2026 The DOD Authors.
//
// Ablation — sampling rate Υ (paper default 0.5%, Sec. V-A).
//
// The plan is built from a Bernoulli sample; this sweep shows how the
// sampling rate trades preprocessing cost against plan quality (end-to-end
// time and reducer-load balance of the resulting DMT plan).

#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "data/geo_like.h"

int main() {
  const size_t n = dod::bench::ScaledN(60000);
  const dod::DetectionParams params{5.0, 4};
  const dod::Dataset data =
      dod::GenerateHierarchical(dod::MapLevel::kNewEngland, n / 3, 111);

  dod::bench::PrintHeader(
      "Ablation — DMT plan quality vs sampling rate Υ",
      "Lower rates make preprocessing cheaper but plans noisier.",
      dod::bench::TimeBase::kSimulated);

  std::printf("%-8s %12s %12s %12s %12s %12s\n", "rate", "preprocess",
              "reduce", "total", "partitions", "imbalance");
  for (double rate : {0.002, 0.005, 0.02, 0.05, 0.2}) {
    dod::DodConfig config =
        dod::bench::BenchConfig(dod::StrategyKind::kDmt,
                                dod::AlgorithmKind::kCellBased, params,
                                data.size());
    config.sampler.rate = rate;
    dod::DodPipeline pipeline(config);
    const dod::DodResult result = pipeline.RunOrDie(data);
    // Realized (not estimated) reduce-task imbalance.
    const double imbalance =
        dod::ImbalanceFactor(result.detect_stats.reduce_task_seconds);
    std::printf("%-8.3f %12.4f %12.4f %12.4f %12zu %11.2fx\n", rate,
                result.breakdown.preprocess_seconds,
                result.breakdown.detect.reduce_seconds,
                result.breakdown.total(),
                result.plan.partition_plan.num_cells(), imbalance);
  }
  return 0;
}
