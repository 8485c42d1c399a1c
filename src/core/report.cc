// Copyright 2026 The DOD Authors.

#include "core/report.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <vector>

#include "kernels/distance_kernels.h"

namespace dod {
namespace {

void Appendf(std::string& out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string& out, const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  out += buf;
}

}  // namespace

std::string FormatRunReport(const DodConfig& config, const DodResult& result,
                            size_t input_points) {
  std::string out;
  Appendf(out, "configuration : %s (r=%g, k=%d)\n", config.Label().c_str(),
          config.params.radius, config.params.min_neighbors);
  Appendf(out, "input         : %zu points\n", input_points);
  Appendf(out, "outliers      : %zu (%.3f%%)\n", result.outliers.size(),
          input_points > 0
              ? 100.0 * result.outliers.size() / input_points
              : 0.0);

  size_t nested_loop = 0, cell_based = 0;
  for (AlgorithmKind kind : result.plan.algorithm_plan) {
    (kind == AlgorithmKind::kNestedLoop ? nested_loop : cell_based)++;
  }
  Appendf(out, "plan          : %zu partitions (%zu Nested-Loop, %zu "
               "Cell-Based), support %s\n",
          result.plan.partition_plan.num_cells(), nested_loop, cell_based,
          result.plan.uses_supporting_area ? "on" : "off (verify job)");

  Appendf(out, "stage times   : preprocess %.4fs | map %.4fs | shuffle "
               "%.4fs | reduce %.4fs",
          result.breakdown.preprocess_seconds,
          result.breakdown.detect.map_seconds,
          result.breakdown.detect.shuffle_seconds,
          result.breakdown.detect.reduce_seconds);
  if (result.breakdown.verify.total() > 0.0) {
    Appendf(out, " | verify %.4fs", result.breakdown.verify.total());
  }
  Appendf(out, "\nend-to-end    : %.4fs simulated (%.4fs wall)\n",
          result.breakdown.total(), result.wall_seconds);
  // Simulated makespan above; what this machine's threads actually did
  // below. With --threads=1 the wall times are the serial task sums.
  Appendf(out,
          "parallelism   : %d threads | map wall %.4fs | reduce wall "
          "%.4fs\n",
          result.detect_stats.threads_used,
          result.detect_stats.map_wall_seconds +
              result.verify_stats.map_wall_seconds,
          result.detect_stats.reduce_wall_seconds +
              result.verify_stats.reduce_wall_seconds);
  // Which table kAuto resolves to depends on this machine's CPU.
  Appendf(out, "kernels       : %s (%s)\n",
          GetKernelOps(config.params.kernels).name,
          KernelModeName(config.params.kernels));

  // Cost-model accuracy: the planner's predicted per-partition workload
  // against the distance evaluations detection actually performed.
  {
    std::vector<double> ratios;
    for (const PartitionProfile& profile :
         result.detect_stats.partition_profiles) {
      if (profile.predicted_cost > 0.0 &&
          profile.measured_distance_evals > 0) {
        ratios.push_back(profile.predicted_cost /
                         static_cast<double>(profile.measured_distance_evals));
      }
    }
    if (!ratios.empty()) {
      std::sort(ratios.begin(), ratios.end());
      const auto quantile = [&ratios](double q) {
        const size_t index = std::min(
            ratios.size() - 1, static_cast<size_t>(q * ratios.size()));
        return ratios[index];
      };
      Appendf(out,
              "cost model    : %zu partitions profiled | predicted/measured "
              "evals: median %.2fx (p10 %.2fx, p90 %.2fx)\n",
              result.detect_stats.partition_profiles.size(), quantile(0.5),
              quantile(0.1), quantile(0.9));
    }
  }

  Appendf(out, "data movement : %llu records shuffled (%.2f MB)\n",
          static_cast<unsigned long long>(
              result.detect_stats.records_shuffled +
              result.verify_stats.records_shuffled),
          (result.detect_stats.bytes_shuffled +
           result.verify_stats.bytes_shuffled) /
              1e6);

  // Fault-tolerance accounting, shown only when something actually failed.
  const JobStats& d = result.detect_stats;
  const JobStats& v = result.verify_stats;
  const uint64_t failures = d.task_failures + v.task_failures;
  if (failures > 0) {
    Appendf(out, "fault recovery: %llu attempts (%llu failed, %llu retried)\n",
            static_cast<unsigned long long>(d.task_attempts +
                                            v.task_attempts),
            static_cast<unsigned long long>(failures),
            static_cast<unsigned long long>(d.task_retries + v.task_retries));
  }
  return out;
}

}  // namespace dod
