// Copyright 2026 The DOD Authors.
//
// Ablation — mini-bucket grid resolution (Sec. V-A, stage 1).
//
// Mini buckets are DSHC's unit of processing: a coarse grid makes plans
// cheap but blunt (partitions mix densities); a fine grid sharpens the
// plan at higher preprocessing cost.

#include <cstdio>

#include "bench_util.h"
#include "data/geo_like.h"

int main() {
  const size_t n = dod::bench::ScaledN(60000);
  const dod::DetectionParams params{5.0, 4};
  const dod::Dataset data =
      dod::GenerateHierarchical(dod::MapLevel::kNewEngland, n / 3, 131);

  dod::bench::PrintHeader(
      "Ablation — DMT vs mini-bucket grid resolution",
      "buckets/dim controls the granularity of DSHC's clustering.",
      dod::bench::TimeBase::kSimulated);

  std::printf("%-12s %12s %12s %12s %12s\n", "buckets/dim", "preprocess",
              "reduce", "total", "partitions");
  for (int buckets : {8, 16, 32, 64, 128}) {
    dod::DodConfig config =
        dod::bench::BenchConfig(dod::StrategyKind::kDmt,
                                dod::AlgorithmKind::kCellBased, params,
                                data.size());
    config.sampler.buckets_per_dim = buckets;
    dod::DodPipeline pipeline(config);
    const dod::DodResult result = pipeline.RunOrDie(data);
    std::printf("%-12d %12.4f %12.4f %12.4f %12zu\n", buckets,
                result.breakdown.preprocess_seconds,
                result.breakdown.detect.reduce_seconds,
                result.breakdown.total(),
                result.plan.partition_plan.num_cells());
  }
  return 0;
}
