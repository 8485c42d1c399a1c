// Copyright 2026 The DOD Authors.

#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "observability/metrics.h"
#include "observability/profile.h"

namespace dod {
namespace bench {

double Scale() {
  static const double scale = [] {
    const char* env = std::getenv("DOD_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double value = std::strtod(env, nullptr);
    return value > 0.0 ? value : 1.0;
  }();
  return scale;
}

size_t ScaledN(size_t base) {
  return std::max<size_t>(1000, static_cast<size_t>(base * Scale()));
}

RunResult RunPipeline(const DodConfig& config, const Dataset& data,
                      const std::string& label, int repeats) {
  DodPipeline pipeline(config);
  DodResult result = pipeline.RunOrDie(data);
  for (int i = 1; i < repeats; ++i) {
    DodResult again = pipeline.RunOrDie(data);
    if (again.breakdown.total() < result.breakdown.total()) {
      result = std::move(again);
    }
  }
  RunResult out;
  out.label = label;
  out.total_seconds = result.breakdown.total();
  out.preprocess_seconds = result.breakdown.preprocess_seconds;
  out.map_seconds = result.breakdown.detect.map_seconds +
                    result.breakdown.detect.shuffle_seconds +
                    result.breakdown.verify.map_seconds +
                    result.breakdown.verify.shuffle_seconds;
  out.reduce_seconds = result.breakdown.detect.reduce_seconds +
                       result.breakdown.verify.reduce_seconds;
  out.wall_seconds = result.wall_seconds;
  out.outliers = result.outliers.size();
  out.partitions = result.plan.partition_plan.num_cells();
  return out;
}

DodConfig BenchConfig(StrategyKind strategy, AlgorithmKind algorithm,
                      const DetectionParams& params, size_t n) {
  DodConfig config = strategy == StrategyKind::kDmt
                         ? DodConfig::Dmt(params)
                         : DodConfig::Baseline(params, strategy, algorithm);
  // Partition granularity: partitions must be large enough that the
  // asymptotic gap between the detector classes matters (Nested-Loop's
  // probe count per point grows with partition size; Cell-Based's indexing
  // stays linear), yet numerous enough that reducers can be balanced. The
  // paper's reducers process partitions of 10^5-10^6 points; scaled down we
  // target ~4000 points per partition, several partitions per reduce task.
  config.target_partitions =
      std::clamp<size_t>(n / 4000, size_t{32}, size_t{512});
  config.num_reduce_tasks = 32;
  config.num_blocks = 32;
  // Scaled-up Υ and an adaptive bucket grid: the sketch needs several
  // samples per occupied bucket for bucket densities (and hence regime
  // classification) to be meaningful, yet enough buckets that a dense city
  // spans many of them (a sub-bucket city cannot be split by any planner).
  // At the paper's scale Υ=0.5% yields both easily; at bench scale we
  // sample 20% and target ~10 samples per bucket.
  config.sampler.rate = 0.2;
  config.sampler.buckets_per_dim = std::clamp(
      static_cast<int>(std::sqrt(n * config.sampler.rate / 10.0)), 32, 128);
  return config;
}

void WriteMetricsJson(const char* path,
                      const std::vector<PartitionProfile>& profiles) {
  const std::string json =
      ObservabilityReportJson(MetricsRegistry::Global().Snapshot(), profiles);
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

void PrintHeader(const std::string& title, const std::string& note,
                 TimeBase time_base) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
  std::printf("(scale=%.2f; times are %s)\n", Scale(),
              time_base == TimeBase::kSimulated ? "simulated cluster seconds"
                                                : "wall-clock seconds");
  std::printf("================================================================\n");
}

void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths) {
  for (size_t i = 0; i < cells.size(); ++i) {
    const int width = i < widths.size() ? widths[i] : 12;
    std::printf("%-*s", width, cells[i].c_str());
  }
  std::printf("\n");
}

std::string FormatSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", seconds);
  return buf;
}

std::string FormatRatio(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", ratio);
  return buf;
}

}  // namespace bench
}  // namespace dod
