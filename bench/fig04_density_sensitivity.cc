// Copyright 2026 The DOD Authors.
//
// Figure 4 — Sensitivity of Nested-Loop's performance to dataset density.
//
// Paper setup (Sec. IV-A): two datasets of identical cardinality, where the
// domain area of D-Dense is 1/4 of D-Sparse's (D-Dense is 4× denser);
// Nested-Loop with r=5, k=4. Reported result: D-Sparse runs ≈4.5× slower
// than D-Dense although input size and parameters are identical.

#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "common/timer.h"
#include "data/generators.h"
#include "detection/cost_model.h"
#include "detection/nested_loop.h"

int main() {
  using dod::bench::FormatSeconds;
  const size_t n = dod::bench::ScaledN(60000);
  const dod::DetectionParams params{/*radius=*/5.0, /*min_neighbors=*/4};

  // Densities chosen in the Nested-Loop-sensitive window with a 4x gap.
  const double dense_density = 0.24;
  const double sparse_density = dense_density / 4.0;

  const dod::Dataset dense =
      dod::GenerateUniform(n, dod::DomainForDensity(n, dense_density), 41);
  const dod::Dataset sparse =
      dod::GenerateUniform(n, dod::DomainForDensity(n, sparse_density), 43);

  dod::bench::PrintHeader(
      "Figure 4 — Nested-Loop execution time vs dataset density",
      "Equal cardinality; D-Dense covers 1/4 of D-Sparse's domain area.\n"
      "Paper: D-Sparse ≈ 4.5x slower than D-Dense.",
      dod::bench::TimeBase::kSimulated);

  dod::NestedLoopDetector detector;
  auto measure = [&](const dod::Dataset& data) {
    dod::StopWatch watch;
    const auto outliers = detector.DetectOutliers(data, data.size(), params);
    return std::make_pair(watch.ElapsedSeconds(), outliers.size());
  };

  const auto [sparse_time, sparse_outliers] = measure(sparse);
  const auto [dense_time, dense_outliers] = measure(dense);

  std::printf("%-10s %12s %12s %12s %10s\n", "dataset", "points", "density",
              "time (s)", "outliers");
  std::printf("%-10s %12zu %12.4f %12s %10zu\n", "D-Sparse", sparse.size(),
              sparse_density, FormatSeconds(sparse_time).c_str(),
              sparse_outliers);
  std::printf("%-10s %12zu %12.4f %12s %10zu\n", "D-Dense", dense.size(),
              dense_density, FormatSeconds(dense_time).c_str(),
              dense_outliers);

  const double measured_ratio = sparse_time / dense_time;
  const dod::PartitionStats sparse_stats{n, n / sparse_density, 2};
  const dod::PartitionStats dense_stats{n, n / dense_density, 2};
  const double model_ratio = dod::NestedLoopCost(sparse_stats, params) /
                             dod::NestedLoopCost(dense_stats, params);
  std::printf("\nslowdown D-Sparse vs D-Dense: measured %.2fx, "
              "Lemma 4.1 predicts %.2fx (paper: ~4.5x)\n",
              measured_ratio, model_ratio);
  return 0;
}
