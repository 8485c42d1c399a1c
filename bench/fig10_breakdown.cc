// Copyright 2026 The DOD Authors.
//
// Figure 10 — Execution-time breakdown of the overall DOD approach.
//
// Paper setup (Sec. VI-D):
//  (a) a 2 TB synthetic dataset built by replicating the OpenStreetMap data
//      3× with random per-dimension distortion; configurations
//      Domain+Cell-Based, uniSpace+Cell-Based, DDriven+Cell-Based, DMT.
//      Reported: equal map times, DMT reduce up to 10x faster; DMT's
//      preprocess is longer than DDriven's; Domain/uniSpace have none.
//  (b) the TIGER dataset; configurations CDriven+Nested-Loop,
//      CDriven+Cell-Based, DMT. Reported: DMT up to 20x faster overall.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "data/distort.h"
#include "data/geo_like.h"
#include "data/tiger_like.h"

namespace {

using dod::bench::BenchConfig;
using dod::bench::RunPipeline;
using dod::bench::RunResult;

void PrintBreakdown(const std::vector<RunResult>& rows) {
  std::printf("%-24s %12s %12s %12s %12s\n", "configuration", "preprocess",
              "map", "reduce", "total");
  double best_total = 1e300;
  for (const RunResult& row : rows) best_total = std::min(best_total, row.total_seconds);
  for (const RunResult& row : rows) {
    std::printf("%-24s %12.4f %12.4f %12.4f %12.4f  (%.1fx)\n",
                row.label.c_str(), row.preprocess_seconds, row.map_seconds,
                row.reduce_seconds, row.total_seconds,
                row.total_seconds / best_total);
  }
}

}  // namespace

int main() {
  const dod::DetectionParams params{5.0, 4};

  dod::bench::PrintHeader(
      "Figure 10 — Execution time breakdown",
      "Paper: (a) DMT reduce up to 10x faster on the distorted synthetic\n"
      "data; (b) DMT up to 20x faster overall on TIGER.",
      dod::bench::TimeBase::kSimulated);

  // ---- (a) distorted synthetic (the paper's 2TB workload, scaled) -------
  {
    const size_t base_n = dod::bench::ScaledN(40000);
    const dod::Dataset base = dod::GenerateHierarchical(
        dod::MapLevel::kNewEngland, base_n / 3, 101);
    dod::DistortOptions distort;
    distort.copies = 3;
    distort.max_alteration_frac = 0.002;
    const dod::Dataset data = DistortReplicate(base, distort);
    const size_t n = data.size();

    std::printf("\n--- Fig 10(a): distorted synthetic dataset (%zu points) "
                "---\n",
                n);
    std::vector<RunResult> rows;
    rows.push_back(RunPipeline(
        BenchConfig(dod::StrategyKind::kDomain, dod::AlgorithmKind::kCellBased,
                    params, n),
        data, "Domain + Cell-Based"));
    rows.push_back(RunPipeline(
        BenchConfig(dod::StrategyKind::kUniSpace,
                    dod::AlgorithmKind::kCellBased, params, n),
        data, "uniSpace + Cell-Based"));
    rows.push_back(RunPipeline(
        BenchConfig(dod::StrategyKind::kDDriven,
                    dod::AlgorithmKind::kCellBased, params, n),
        data, "DDriven + Cell-Based"));
    rows.push_back(RunPipeline(
        BenchConfig(dod::StrategyKind::kDmt, dod::AlgorithmKind::kCellBased,
                    params, n),
        data, "DMT"));
    PrintBreakdown(rows);
  }

  // ---- (b) TIGER-like -----------------------------------------------------
  {
    const size_t n = dod::bench::ScaledN(70000);
    const dod::Dataset data = dod::GenerateTigerLike(n, 103);

    std::printf("\n--- Fig 10(b): TIGER-like dataset (%zu points) ---\n", n);
    std::vector<RunResult> rows;
    rows.push_back(RunPipeline(
        BenchConfig(dod::StrategyKind::kCDriven,
                    dod::AlgorithmKind::kNestedLoop, params, n),
        data, "CDriven + Nested-Loop"));
    rows.push_back(RunPipeline(
        BenchConfig(dod::StrategyKind::kCDriven,
                    dod::AlgorithmKind::kCellBased, params, n),
        data, "CDriven + Cell-Based"));
    rows.push_back(RunPipeline(
        BenchConfig(dod::StrategyKind::kDmt, dod::AlgorithmKind::kCellBased,
                    params, n),
        data, "DMT"));
    PrintBreakdown(rows);
  }
  return 0;
}
