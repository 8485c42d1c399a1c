// Copyright 2026 The DOD Authors.
//
// Shared harness for the figure-reproduction benches. Each bench binary
// regenerates one figure of the paper's evaluation (Sec. VI): it builds the
// scaled workload, runs the relevant pipeline configurations, and prints the
// same rows/series the figure reports.
//
// Sizing: workloads are ~1000× smaller than the paper's (Sec. VI used 30 M
// to 4 B points on 40 nodes; we default to tens of thousands of points on
// one machine). Set DOD_BENCH_SCALE to grow or shrink every workload, e.g.
// DOD_BENCH_SCALE=4 for a longer, higher-fidelity run.

#ifndef DOD_BENCH_BENCH_UTIL_H_
#define DOD_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "core/pipeline.h"

namespace dod {
namespace bench {

// Global size multiplier from DOD_BENCH_SCALE (default 1.0).
double Scale();

// n scaled by DOD_BENCH_SCALE, with a floor of 1000 points.
size_t ScaledN(size_t base);

// One measured pipeline execution.
struct RunResult {
  std::string label;
  // Simulated end-to-end time on the configured cluster (the paper's
  // metric), plus its stage split.
  double total_seconds = 0.0;
  double preprocess_seconds = 0.0;
  double map_seconds = 0.0;
  double reduce_seconds = 0.0;  // detect reduce + verification job
  // Single-machine wall time of the run (diagnostic only).
  double wall_seconds = 0.0;
  size_t outliers = 0;
  size_t partitions = 0;
};

// Runs `config` on `data` `repeats` times and keeps the fastest run (the
// standard way to shed first-touch/allocator warmup noise from
// millisecond-scale measurements).
RunResult RunPipeline(const DodConfig& config, const Dataset& data,
                      const std::string& label, int repeats = 2);

// A DodConfig sized for benches: reducers/partitions grown with the data.
DodConfig BenchConfig(StrategyKind strategy, AlgorithmKind algorithm,
                      const DetectionParams& params, size_t n);

// Dumps the process-wide metrics registry (plus optional per-partition
// cost snapshots) as an observability report next to the BENCH_*.json of
// the calling bench, so regressions in counter values can be diffed the
// same way as throughput numbers.
void WriteMetricsJson(const char* path,
                      const std::vector<PartitionProfile>& profiles);

// What a bench's times measure: the paper's simulated cluster seconds
// (makespans over measured task durations) or single-machine wall clock.
enum class TimeBase { kSimulated, kWallClock };

// Figure-style output helpers. The header states which time base the
// bench's times come from.
void PrintHeader(const std::string& title, const std::string& note,
                 TimeBase time_base);
void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths);
std::string FormatSeconds(double seconds);
std::string FormatRatio(double ratio);

}  // namespace bench
}  // namespace dod

#endif  // DOD_BENCH_BENCH_UTIL_H_
