// Copyright 2026 The DOD Authors.
//
// Parallel runtime scaling — speedup of the thread-pool executor
// (src/runtime/) over the sequential engine on a geo-like workload.
//
// Not a paper figure: the paper scales across cluster *nodes* (Sec. VI);
// this bench scales across *worker threads* on one machine, the knob the
// local runtime actually has. Reported per thread count: best-of-repeats
// wall time, speedup over --threads=1, and parallel efficiency. The
// outlier set is asserted identical at every thread count — speed must
// never buy a different answer.
//
// Besides the table, emits machine-readable BENCH_parallel.json into the
// current directory.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/geo_like.h"
#include "runtime/thread_pool.h"

namespace {

using dod::bench::BenchConfig;
using dod::bench::ScaledN;

struct ThreadPoint {
  int threads = 1;
  double wall_seconds = 0.0;
  double map_wall_seconds = 0.0;
  double reduce_wall_seconds = 0.0;
};

// Best-of-`repeats` wall time (sheds warmup noise, like RunPipeline), with
// the phase walls taken from the fastest repeat.
ThreadPoint Measure(const dod::DodConfig& config, const dod::Dataset& data,
                    const std::vector<dod::PointId>& expected_outliers,
                    int repeats) {
  const dod::DodPipeline pipeline(config);
  ThreadPoint point;
  point.threads = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    const dod::DodResult result = pipeline.RunOrDie(data);
    if (!expected_outliers.empty() && result.outliers != expected_outliers) {
      std::fprintf(stderr,
                   "FATAL: %d-thread run changed the outlier set "
                   "(%zu vs %zu outliers)\n",
                   config.num_threads, result.outliers.size(),
                   expected_outliers.size());
      std::exit(1);
    }
    if (point.threads == 0 || result.wall_seconds < point.wall_seconds) {
      point.threads = result.detect_stats.threads_used;
      point.wall_seconds = result.wall_seconds;
      point.map_wall_seconds = result.detect_stats.map_wall_seconds +
                               result.verify_stats.map_wall_seconds;
      point.reduce_wall_seconds = result.detect_stats.reduce_wall_seconds +
                                  result.verify_stats.reduce_wall_seconds;
    }
  }
  return point;
}

void WriteJson(const char* path, size_t points, size_t outliers,
               const std::vector<ThreadPoint>& curve) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  const double base = curve.front().wall_seconds;
  std::fprintf(f, "{\n  \"bench\": \"parallel_scaling\",\n");
  std::fprintf(f, "  \"points\": %zu,\n  \"outliers\": %zu,\n", points,
               outliers);
  std::fprintf(f, "  \"hardware_threads\": %d,\n",
               dod::ThreadPool::DefaultThreadCount());
  std::fprintf(f, "  \"curve\": [\n");
  for (size_t i = 0; i < curve.size(); ++i) {
    const ThreadPoint& p = curve[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"wall_seconds\": %.6f, "
                 "\"map_wall_seconds\": %.6f, \"reduce_wall_seconds\": %.6f, "
                 "\"speedup\": %.3f, \"efficiency\": %.3f}%s\n",
                 p.threads, p.wall_seconds, p.map_wall_seconds,
                 p.reduce_wall_seconds, base / p.wall_seconds,
                 base / p.wall_seconds / p.threads,
                 i + 1 < curve.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main() {
  const dod::DetectionParams params{5.0, 4};
  // Larger than the figure benches: scaling needs enough per-task work for
  // the pool's overhead to amortize, like any real speedup measurement.
  const dod::Dataset data = dod::GenerateHierarchical(
      dod::MapLevel::kNewEngland, ScaledN(20000), 81);
  const size_t n = data.size();

  dod::bench::PrintHeader(
      "Parallel runtime scaling — threads 1/2/4/8 on a geo-like workload",
      "Wall time of the same job on the thread-pool executor; the outlier\n"
      "set is asserted identical at every thread count.",
      dod::bench::TimeBase::kWallClock);

  dod::DodConfig config = BenchConfig(dod::StrategyKind::kDmt,
                                      dod::AlgorithmKind::kCellBased, params,
                                      n);

  // Sequential reference run: its outliers gate every parallel run.
  config.num_threads = 1;
  const dod::DodResult reference =
      dod::DodPipeline(config).RunOrDie(data);

  // Flat curves on few-core machines are expected, not a runtime bug:
  // speedup is capped by the hardware threads actually present.
  std::printf("%zu points, %zu outliers, %zu partitions, %d hardware "
              "threads\n\n",
              n, reference.outliers.size(),
              reference.plan.partition_plan.num_cells(),
              dod::ThreadPool::DefaultThreadCount());
  std::printf("%8s %12s %12s %12s %9s %11s\n", "threads", "wall", "map wall",
              "reduce wall", "speedup", "efficiency");

  std::vector<ThreadPoint> curve;
  for (int threads : {1, 2, 4, 8}) {
    config.num_threads = threads;
    const ThreadPoint point =
        Measure(config, data, reference.outliers, /*repeats=*/3);
    curve.push_back(point);
    const double speedup = curve.front().wall_seconds / point.wall_seconds;
    std::printf("%8d %11.4fs %11.4fs %11.4fs %8.2fx %10.1f%%\n",
                point.threads, point.wall_seconds, point.map_wall_seconds,
                point.reduce_wall_seconds, speedup,
                100.0 * speedup / point.threads);
  }

  WriteJson("BENCH_parallel.json", n, reference.outliers.size(), curve);
  dod::bench::WriteMetricsJson("BENCH_parallel_metrics.json",
                               reference.detect_stats.partition_profiles);
  return 0;
}
