// Copyright 2026 The DOD Authors.
//
// dod_bench: the repository benchmark. Each workload (workloads.h) makes its
// input from --seed, drives the public API — DodPipeline::Run for batch
// workloads, StreamingDetector::Ingest/Flush for stream workloads — as one
// closed-loop client for --seconds, and checks every answer against the
// independent oracle (oracle.h).
//
//   dod_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//       One run. Prints one JSON record as the last line of stdout:
//       {bench, host, workload, seed, trace, config, correct, attempted,
//        failed, failed_frac, end_to_end{}, layers{}, counters{}}
//       with every metric as {"value", "unit"}. --trace 0 measures the
//       end-to-end metrics; --trace 1 is the separate run that measures
//       the per-layer ones (README.md lists both). Exits 1 when any call
//       failed or any answer disagreed with the oracle.
//   dod_bench --workload all --seed <n> --out <file>
//       Every workload, --trace 0 then 1, each in its own child process
//       (so peak_rss_mb is per workload), collected into one result set
//       {bench, host, seed, seconds, runs[]} for bench_diff.
//   dod_bench --smoke
//       Every workload at a tiny size, both passes, with the oracle and a
//       schema check; a few seconds.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench_stats.h"
#include "common/flags.h"
#include "common/stats.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "kernels/distance_kernels.h"
#include "observability/trace.h"
#include "oracle.h"
#include "reference.h"
#include "replay.h"
#include "streaming/streaming_detector.h"
#include "workloads.h"

namespace dod::bench {
namespace {

// Batch runs use two worker threads (the host has four, shared); stream
// runs use one, the service default.
constexpr int kBatchThreads = 2;
// Set-up is repeated and its median reported, so work moved into set-up
// shows without one slow repetition deciding the number. The first few
// batch generations run ~30% slower while the allocator warms up, so the
// median must come from well past them.
constexpr int kBatchSetups = 15;
constexpr int kStreamSetups = 5;
constexpr size_t kMinBatchRuns = 5;
// Traced batch pass: at least this many rounds of 1-thread Run, 2-thread
// Run and staged replay.
constexpr size_t kMinTracedRounds = 3;
// Traced stream pass: seconds of batch rounds over the window. With only
// kMinTracedRounds, replay.residual_frac reached 0.16 on a busy host.
constexpr double kWindowReplaySeconds = 2.0;
// Stream runs check the outlier set against the oracle every this many
// rounds (and at the end); per-round counts are averaged over the first
// this many rounds so they repeat exactly for a seed.
constexpr uint64_t kCheckEvery = 250;
// Stream runs time the reference task after every this many seconds of
// API calls (batch runs, before every Run).
constexpr double kReferenceEvery = 0.1;
// stream_localized commits its window state every this many arrivals. The
// store is append-only and a snapshot of the 64k window is 1.7 MB, so at
// the service default of 1 a 15 s run wrote ~2 GB into the checkout, more
// than a benchmark host may have room for; at 64 a run writes < 100 MB.
constexpr uint64_t kCheckpointEvery = 64;

// The gated end-to-end metrics (BENCHMARK.json); the smoke test checks that
// every record carries them.
const char* const kEndToEndNames[] = {"latency_p50_ref", "latency_p90_ref",
                                      "points_per_ref", "setup_s",
                                      "peak_rss_mb"};

struct Options {
  uint64_t seed = 1;
  double seconds = 15.0;  // BENCHMARK.json run_seconds
  bool trace = false;
  std::string tmp_dir = ".bench_build/tmp";
};

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {0};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {0};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string HostJson() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"cpu\":" + JsonString(CpuModel()) +
         ",\"avx2_kernels\":" + (Avx2KernelsAvailable() ? "true" : "false") +
         ",\"compiler\":" + JsonString(compiler) +
         ",\"build_type\":" + JsonString(DOD_BENCH_BUILD_TYPE) + "}";
}

// The process's peak RSS less the reference task's data, which stays
// resident from before the workload starts to the end of the run.
double PeakRssMb(const ReferenceTask& reference) {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0 -  // KiB on Linux
         reference.resident_mb();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// One run's result: call and check accounting plus every metric.
class Record {
 public:
  Record(const WorkloadSpec& spec, const Options& options)
      : spec_(spec), options_(options) {}

  // Counts one API call; a non-OK status counts as failed.
  bool Call(const Status& status, const char* what) {
    ++attempted_;
    if (status.ok()) return true;
    ++failed_;
    std::fprintf(stderr, "dod_bench: %s %s failed: %s\n", spec_.name, what,
                 status.ToString().c_str());
    return false;
  }

  // A correctness check; a failed one counts as failed.
  void Check(bool ok, const char* what) {
    if (ok) return;
    ++failed_;
    std::fprintf(stderr, "dod_bench: %s: %s\n", spec_.name, what);
  }

  void EndToEnd(const char* name, double value, const char* unit) {
    end_to_end_.push_back({name, value, unit});
  }
  void Layer(const char* name, double value, const char* unit) {
    layers_.push_back({name, value, unit});
  }
  void Counter(const char* name, double value) {
    counters_.emplace_back(name, value);
  }
  void Config(const char* key, double value) {
    config_ += std::string(config_.empty() ? "" : ",") + "\"" + key +
               "\":" + JsonNumber(value);
  }

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  const std::vector<Metric>& end_to_end() const { return end_to_end_; }
  const std::vector<Metric>& layers() const { return layers_; }

  std::string Json() const {
    const auto metrics = [](const std::vector<Metric>& list) {
      std::string out = "{";
      for (size_t i = 0; i < list.size(); ++i) {
        out += (i > 0 ? "," : "") + JsonString(list[i].name) +
               ":{\"value\":" + JsonNumber(list[i].value) +
               ",\"unit\":" + JsonString(list[i].unit) + "}";
      }
      return out + "}";
    };
    std::string counters = "{";
    for (size_t i = 0; i < counters_.size(); ++i) {
      counters += (i > 0 ? "," : "") + JsonString(counters_[i].first) + ":" +
                  JsonNumber(counters_[i].second);
    }
    counters += "}";
    const double failed_frac =
        attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 1.0;
    return "{\"bench\":\"dod_bench\",\"host\":" + HostJson() +
           ",\"workload\":" + JsonString(spec_.name) +
           ",\"seed\":" + std::to_string(options_.seed) +
           ",\"trace\":" + (options_.trace ? "1" : "0") + ",\"config\":{" +
           config_ + "},\"correct\":" + (correct() ? "true" : "false") +
           ",\"attempted\":" + std::to_string(attempted_) +
           ",\"failed\":" + std::to_string(failed_) +
           ",\"failed_frac\":" + JsonNumber(failed_frac) +
           ",\"end_to_end\":" + metrics(end_to_end_) +
           ",\"layers\":" + metrics(layers_) + ",\"counters\":" + counters +
           "}";
  }

 private:
  const WorkloadSpec& spec_;
  Options options_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::string config_;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  std::vector<std::pair<std::string, double>> counters_;
};

DodConfig BatchConfig(double radius, int min_neighbors, size_t num_blocks,
                      int threads) {
  DetectionParams params;
  params.radius = radius;
  params.min_neighbors = min_neighbors;
  DodConfig config = DodConfig::Dmt(params);
  config.num_blocks = num_blocks;
  config.num_threads = threads;
  return config;
}

// Work counts of one Run; they repeat exactly for a seed.
struct RunCounts {
  double outliers = 0, partitions = 0, nested_loop_cells = 0,
         cell_based_cells = 0, records_shuffled = 0, bytes_shuffled = 0,
         distance_evals = 0, reduce_imbalance = 0, cost_ratio_median = 0,
         cost_ratio_p90 = 0, cost_error_median = 0;
};

RunCounts CountsOf(const DodResult& result, int num_reduce_tasks) {
  RunCounts c;
  c.outliers = static_cast<double>(result.outliers.size());
  c.partitions = static_cast<double>(result.plan.partition_plan.num_cells());
  for (AlgorithmKind kind : result.plan.algorithm_plan) {
    (kind == AlgorithmKind::kNestedLoop ? c.nested_loop_cells
                                        : c.cell_based_cells) += 1;
  }
  const JobStats& stats = result.detect_stats;
  c.records_shuffled = static_cast<double>(stats.records_shuffled);
  c.bytes_shuffled = static_cast<double>(stats.bytes_shuffled);
  c.distance_evals = static_cast<double>(DistanceEvals(stats.counters));
  // Measured evaluations per reduce task, and the planner's predicted cost
  // over measured evaluations per partition (the run report's quantiles).
  std::vector<double> loads(static_cast<size_t>(num_reduce_tasks), 0.0);
  std::vector<double> ratios;
  for (const PartitionProfile& p : stats.partition_profiles) {
    loads[static_cast<size_t>(result.plan.allocation[p.cell])] +=
        static_cast<double>(p.measured_distance_evals);
    if (p.predicted_cost > 0.0 && p.measured_distance_evals > 0) {
      ratios.push_back(p.predicted_cost /
                       static_cast<double>(p.measured_distance_evals));
    }
  }
  c.reduce_imbalance = ImbalanceFactor(loads);
  std::sort(ratios.begin(), ratios.end());
  const auto quantile = [&ratios](double q) {
    return ratios.empty()
               ? 0.0
               : ratios[std::min(ratios.size() - 1,
                                 static_cast<size_t>(q * ratios.size()))];
  };
  c.cost_ratio_median = quantile(0.5);
  c.cost_ratio_p90 = quantile(0.9);
  // Misprediction in either direction: median |log2(predicted/measured)|.
  std::vector<double> errors;
  for (double ratio : ratios) errors.push_back(std::fabs(std::log2(ratio)));
  c.cost_error_median = Median(errors);
  return c;
}

void AddCounters(const RunCounts& c, Record* rec) {
  rec->Counter("outliers", c.outliers);
  rec->Counter("partitions", c.partitions);
  rec->Counter("nested_loop_cells", c.nested_loop_cells);
  rec->Counter("cell_based_cells", c.cell_based_cells);
  rec->Counter("records_shuffled", c.records_shuffled);
  rec->Counter("bytes_shuffled", c.bytes_shuffled);
  rec->Counter("distance_evals", c.distance_evals);
  rec->Counter("reduce_imbalance", c.reduce_imbalance);
  rec->Counter("cost_ratio_median", c.cost_ratio_median);
  rec->Counter("cost_ratio_p90", c.cost_ratio_p90);
  rec->Counter("cost_error_median", c.cost_error_median);
}

// The batch layers of a detection over `data` (expected answer `expected`):
// rounds of a 1-thread Run, a 2-thread Run and a staged replay of the
// 1-thread configuration, for `seconds` and at least kMinTracedRounds
// rounds. Interleaving keeps host drift out of the replay-vs-Run residual.
void AddBatchLayers(const Dataset& data, const DodConfig& config,
                    const std::vector<PointId>& expected, double seconds,
                    Record* rec) {
  DodConfig one = config;
  one.num_threads = 1;
  DodConfig two = config;
  two.num_threads = kBatchThreads;
  const DodPipeline pipelines[2] = {DodPipeline(one), DodPipeline(two)};
  if (!rec->Call(pipelines[1].Run(data).status(), "warm-up Run")) return;

  std::vector<double> walls[2], map_walls, reduce_walls, stages[7];
  double best_makespan = std::numeric_limits<double>::infinity();
  DodResult single;
  ReplayResult replay;
  StopWatch elapsed;
  for (size_t round = 0;
       round < kMinTracedRounds || elapsed.ElapsedSeconds() < seconds;
       ++round) {
    for (int t = 0; t < 2; ++t) {
      StopWatch watch;
      Result<DodResult> run = pipelines[t].Run(data);
      const double wall = watch.ElapsedSeconds();
      if (!rec->Call(run.status(), "Run")) return;
      rec->Check(run.value().outliers == expected,
                 "Run outliers differ from the oracle");
      walls[t].push_back(wall);
      if (t == 1) {
        best_makespan =
            std::min(best_makespan, run.value().breakdown.total());
      } else {
        single = std::move(run).value();
        map_walls.push_back(single.detect_stats.map_wall_seconds);
        reduce_walls.push_back(single.detect_stats.reduce_wall_seconds);
      }
    }
    Result<ReplayResult> replayed = ReplayDetection(data, one);
    if (!rec->Call(replayed.status(), "replay")) return;
    replay = std::move(replayed).value();
    rec->Check(replay.outliers == single.outliers,
               "replay outliers differ from Run");
    const ReplayStages& s = replay.seconds;
    const double values[7] = {s.block_store, s.sample, s.plan, s.route,
                              s.group, s.arena, s.detect};
    for (int k = 0; k < 7; ++k) stages[k].push_back(values[k]);
  }
  ReplayStages median;
  median.block_store = Median(stages[0]);
  median.sample = Median(stages[1]);
  median.plan = Median(stages[2]);
  median.route = Median(stages[3]);
  median.group = Median(stages[4]);
  median.arena = Median(stages[5]);
  median.detect = Median(stages[6]);
  const double single_wall = Median(walls[0]);

  rec->Layer("io.block_store_s", median.block_store, "s");
  rec->Layer("partition.sample_s", median.sample, "s");
  rec->Layer("core.plan_s", median.plan, "s");
  rec->Layer("partition.route_s", median.route, "s");
  rec->Layer("mapreduce.group_s", median.group, "s");
  rec->Layer("detection.arena_s", median.arena, "s");
  rec->Layer("detection.detect_s", median.detect, "s");
  rec->Layer("replay.residual_frac", 1.0 - median.Total() / single_wall,
             "ratio");
  rec->Layer("replay.map_ratio", median.route / Median(map_walls), "ratio");
  rec->Layer("replay.reduce_ratio",
             (median.group + median.arena + median.detect) /
                 Median(reduce_walls),
             "ratio");
  rec->Layer("core.makespan_s", best_makespan, "s");
  rec->Layer("runtime.parallel_speedup", single_wall / Median(walls[1]),
             "ratio");
  const RunCounts counts = CountsOf(single, config.num_reduce_tasks);
  // The replay copies seeds and record tags from core/pipeline.cc that the
  // outliers do not depend on; equal work counts keep its stage times about
  // the run's work.
  rec->Check(static_cast<double>(replay.distance_evals) ==
                     counts.distance_evals &&
                 static_cast<double>(replay.records_shuffled) ==
                     counts.records_shuffled &&
                 static_cast<double>(replay.partitions) == counts.partitions,
             "replay work differs from Run");
  rec->Layer("detection.distance_evals", counts.distance_evals, "count");
  rec->Layer("kernels.evals_per_s",
             static_cast<double>(replay.distance_evals) / median.detect,
             "1/s");
  rec->Layer("mapreduce.records_shuffled", counts.records_shuffled, "count");
  rec->Layer("mapreduce.bytes_shuffled", counts.bytes_shuffled, "bytes");
  rec->Layer("alloc.reduce_imbalance", counts.reduce_imbalance, "ratio");
  rec->Layer("core.cost_ratio_median", counts.cost_ratio_median, "ratio");
  rec->Layer("core.cost_ratio_p90", counts.cost_ratio_p90, "ratio");
  rec->Layer("core.cost_error_median", counts.cost_error_median, "log2");
  rec->Layer("core.partitions", counts.partitions, "count");
  rec->Layer("core.nested_loop_cells", counts.nested_loop_cells, "count");
  rec->Layer("core.cell_based_cells", counts.cell_based_cells, "count");
  AddCounters(counts, rec);
}

// Streaming per-layer numbers. Per-round counts are means over the first
// kCheckEvery measured rounds (exactly repeatable); timings cover the
// whole measured loop. All zero on batch workloads.
struct StreamLayers {
  double insert_pairs = 0, expiry_pairs = 0, recounted_points = 0,
         full_counted_points = 0, dirty_cells = 0, dirty_fraction = 0;
  double pairs_per_s = 0, admitted_per_ingest = 0, buffer_only_ingest_us = 0,
         flush_ms = 0, round_p99_ms = 0, round_max_ms = 0;
  double resident_points = 0, saturated_points = 0;
  double commit_p50_ms = 0, commit_max_ms = 0, bytes_per_commit = 0,
         commit_share = 0;
};

void AddStreamLayers(const StreamLayers& s, Record* rec) {
  rec->Layer("streaming.insert_pairs", s.insert_pairs, "count");
  rec->Layer("streaming.expiry_pairs", s.expiry_pairs, "count");
  rec->Layer("streaming.recounted_points", s.recounted_points, "count");
  rec->Layer("streaming.full_counted_points", s.full_counted_points, "count");
  rec->Layer("streaming.pairs_per_s", s.pairs_per_s, "1/s");
  rec->Layer("streaming.dirty_cells", s.dirty_cells, "count");
  rec->Layer("streaming.dirty_fraction", s.dirty_fraction, "ratio");
  rec->Layer("streaming.admitted_per_ingest", s.admitted_per_ingest, "ratio");
  rec->Layer("streaming.buffer_only_ingest_us", s.buffer_only_ingest_us,
             "us");
  rec->Layer("streaming.flush_ms", s.flush_ms, "ms");
  rec->Layer("streaming.round_p99_ms", s.round_p99_ms, "ms");
  rec->Layer("streaming.round_max_ms", s.round_max_ms, "ms");
  rec->Layer("streaming.resident_points", s.resident_points, "count");
  rec->Layer("streaming.saturated_points", s.saturated_points, "count");
  rec->Layer("durability.commit_p50_ms", s.commit_p50_ms, "ms");
  rec->Layer("durability.commit_max_ms", s.commit_max_ms, "ms");
  rec->Layer("durability.bytes_per_commit", s.bytes_per_commit, "bytes");
  rec->Layer("durability.commit_share", s.commit_share, "ratio");
}

// Set-up timing. Each repetition is followed by one single-threaded run of
// the workload's reference task, and setup_s is the median ratio converted
// to seconds at the reference's time on the calibration host, so host drift
// cancels as it does for the gated latencies (reference.h). The plain
// median rides along ungated.
class SetupClock {
 public:
  explicit SetupClock(ReferenceTask* reference) : reference_(reference) {}

  void Record(double seconds) {
    walls_.push_back(seconds);
    ratios_.push_back(seconds / reference_->Time(1));
  }
  double seconds() const {
    return Median(ratios_) * reference_->host_seconds();
  }
  double wall_seconds() const { return Median(walls_); }

 private:
  ReferenceTask* reference_;
  std::vector<double> walls_;
  std::vector<double> ratios_;
};

// An operation's latency in "ref" (reference.h): divided by the median of
// the last five reference times before it, so drift of the host within a
// run cancels too. Against the run's median reference instead, the
// per-round p90 of stream_diffuse spread twice as wide across seeds.
double InReferenceUnits(double seconds, const std::vector<double>& references) {
  const size_t recent = std::min<size_t>(references.size(), 5);
  return seconds / Median(std::vector<double>(references.end() - recent,
                                              references.end()));
}

// The end-to-end metrics of a measured loop: per-operation latencies (wall
// seconds, and `latency_refs` in reference units) and `points` processed in
// `busy_seconds` of API calls. Latency and throughput are gated in units of
// the reference task's time; their wall-clock values ride along ungated.
void AddEndToEnd(const std::vector<double>& latencies,
                 const std::vector<double>& latency_refs, double points,
                 double busy_seconds, const SetupClock& setup,
                 double peak_rss_mb, const std::vector<double>& references,
                 Record* rec) {
  const double ref = Median(references);
  rec->EndToEnd("latency_p50_ref", Median(latency_refs), "ref");
  rec->EndToEnd("latency_p90_ref", Percentile(latency_refs, 0.9), "ref");
  rec->EndToEnd("points_per_ref", points / busy_seconds * ref, "1/ref");
  rec->EndToEnd("setup_s", setup.seconds(), "s");
  rec->EndToEnd("peak_rss_mb", peak_rss_mb, "MB");
  rec->EndToEnd("wall_p50_ms", Median(latencies) * 1e3, "ms");
  rec->EndToEnd("wall_p90_ms", Percentile(latencies, 0.9) * 1e3, "ms");
  rec->EndToEnd("points_per_s", points / busy_seconds, "1/s");
  rec->EndToEnd("wall_setup_s", setup.wall_seconds(), "s");
  rec->EndToEnd("reference_ms", ref * 1e3, "ms");
  rec->Layer("runtime.samples", static_cast<double>(latencies.size()),
             "count");
}

void RunBatch(const WorkloadSpec& spec, const Options& options,
              Record* rec) {
  const DodConfig config = BatchConfig(spec.radius, spec.min_neighbors,
                                       spec.num_blocks, kBatchThreads);
  rec->Config("points", static_cast<double>(spec.points));
  rec->Config("radius", spec.radius);
  rec->Config("k", spec.min_neighbors);
  rec->Config("blocks", static_cast<double>(spec.num_blocks));
  rec->Config("threads", kBatchThreads);
  rec->Config("seconds", options.seconds);

  std::vector<PointId> planted;
  ReferenceTask reference(spec.reference);
  SetupClock setup(&reference);
  Dataset data(2);
  for (int i = 0; i < (options.trace ? 1 : kBatchSetups); ++i) {
    StopWatch watch;
    data = GenerateBatch(spec, options.seed, &planted);
    setup.Record(watch.ElapsedSeconds());
  }

  if (options.trace) {
    const std::vector<PointId> expected =
        OracleOutliers(data, spec.radius, spec.min_neighbors);
    if (!planted.empty()) {
      rec->Check(expected == planted, "oracle differs from the planted set");
    }
    AddBatchLayers(data, config, expected, options.seconds, rec);
    AddStreamLayers(StreamLayers(), rec);
    return;
  }

  const DodPipeline pipeline(config);
  Result<DodResult> first = pipeline.Run(data);  // warm-up, not timed
  if (!rec->Call(first.status(), "warm-up Run")) return;
  std::vector<double> walls, wall_refs, references;
  double best_makespan = std::numeric_limits<double>::infinity();
  StopWatch elapsed;
  while (walls.size() < kMinBatchRuns ||
         elapsed.ElapsedSeconds() < options.seconds) {
    references.push_back(reference.Time(kBatchThreads));
    StopWatch watch;
    Result<DodResult> run = pipeline.Run(data);
    const double wall = watch.ElapsedSeconds();
    if (!rec->Call(run.status(), "Run")) return;
    walls.push_back(wall);
    wall_refs.push_back(InReferenceUnits(wall, references));
    best_makespan = std::min(best_makespan, run.value().breakdown.total());
    rec->Check(run.value().outliers == first.value().outliers,
               "Run outliers differ between calls");
  }
  const double peak_rss_mb = PeakRssMb(reference);

  const std::vector<PointId> expected =
      OracleOutliers(data, spec.radius, spec.min_neighbors);
  rec->Check(first.value().outliers == expected,
             "Run outliers differ from the oracle");
  if (!planted.empty()) {
    rec->Check(expected == planted, "oracle differs from the planted set");
  }

  AddEndToEnd(walls, wall_refs, static_cast<double>(data.size()) * walls.size(),
              Sum(walls), setup, peak_rss_mb, references, rec);
  rec->Layer("core.makespan_s", best_makespan, "s");
  AddCounters(CountsOf(first.value(), config.num_reduce_tasks), rec);
}

// Total bytes of the regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code error;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, error)) {
    if (entry.is_regular_file(error)) total += entry.file_size(error);
  }
  return total;
}

// Checks the service's outlier set against the oracle over the window the
// schedule says it holds after `admitted` rounds.
bool StreamMatchesOracle(const StreamSchedule& schedule, uint64_t admitted,
                         const StreamingDetector& detector,
                         const WorkloadSpec& spec) {
  std::vector<PointId> ids;
  const Dataset window = schedule.Window(admitted, &ids);
  std::vector<PointId> expected;
  for (PointId index :
       OracleOutliers(window, spec.radius, spec.min_neighbors)) {
    expected.push_back(ids[index]);
  }
  std::sort(expected.begin(), expected.end());
  return expected == detector.outliers();
}

void RunStream(const WorkloadSpec& spec, const Options& options,
               Record* rec) {
  const bool localized = spec.input == Input::kLocalized;
  StreamingConfig config;
  config.params.radius = spec.radius;
  config.params.min_neighbors = spec.min_neighbors;
  config.window_blocks = spec.points / spec.block_size;
  config.num_threads = 1;
  if (localized) {
    config.watermark.enabled = true;
    config.watermark.lateness = StreamSchedule::kLateness;
    // The service's automatic commits: Ingest commits every
    // kCheckpointEvery arrivals, and Flush commits once more.
    config.checkpoint_every = kCheckpointEvery;
    config.checkpoint_dir =
        options.tmp_dir + "/ckpt-" + std::to_string(getpid());
  }
  rec->Config("window_points", static_cast<double>(spec.points));
  rec->Config("block_size", static_cast<double>(spec.block_size));
  rec->Config("radius", spec.radius);
  rec->Config("k", spec.min_neighbors);
  rec->Config("threads", 1);
  rec->Config("seconds", options.seconds);
  if (localized) {
    rec->Config("checkpoint_every", static_cast<double>(kCheckpointEvery));
  }

  // Set-up: Create plus prefilling the window, repeated on fresh services
  // (and fresh checkpoint stores) over the same schedule; the last one is
  // measured.
  std::unique_ptr<StreamSchedule> schedule;
  std::unique_ptr<StreamingDetector> detector;
  ReferenceTask reference(spec.reference);
  SetupClock setup(&reference);
  for (int i = 0; i < (options.trace ? 1 : kStreamSetups); ++i) {
    detector.reset();
    schedule = std::make_unique<StreamSchedule>(spec, options.seed);
    if (localized) std::filesystem::remove_all(config.checkpoint_dir);
    StopWatch watch;
    Result<std::unique_ptr<StreamingDetector>> created =
        StreamingDetector::Create(config);
    if (!rec->Call(created.status(), "Create")) return;
    detector = std::move(created).value();
    while (detector->rounds() < config.window_blocks) {
      if (!rec->Call(detector->Ingest(schedule->NextArrival()).status(),
                     "prefill Ingest")) {
        return;
      }
    }
    setup.Record(watch.ElapsedSeconds());
  }

  StreamLayers layers;
  std::vector<double> latencies, latency_refs, buffer_only, commits;
  uint64_t ingests = 0, admitted_rounds = 0, admitted_points = 0;
  uint64_t pairs = 0;
  double api_seconds = 0.0, feed_seconds = 0.0;
  const uint64_t first_round = detector->rounds();
  uint64_t next_check = first_round + kCheckEvery;
  const uint64_t store_bytes = DirectoryBytes(config.checkpoint_dir);
  // Traced pass: commits run inside Ingest and Flush, so the library's own
  // "stream_checkpoint" spans time them.
  if (options.trace) trace::Start();
  std::unique_ptr<Dataset> check_window;  // traced pass: window at 1st check
  const auto admit = [&](const IngestResult& result) {
    for (const OutlierDelta& delta : result.admitted) {
      const StreamRoundStats& s = delta.stats;
      ++admitted_rounds;
      admitted_points += s.appended_points;
      pairs += s.insert_pairs + s.expiry_pairs;
      feed_seconds += s.round_seconds;
      if (admitted_rounds <= kCheckEvery) {
        layers.insert_pairs += static_cast<double>(s.insert_pairs);
        layers.expiry_pairs += static_cast<double>(s.expiry_pairs);
        layers.recounted_points += static_cast<double>(s.recounted_points);
        layers.full_counted_points +=
            static_cast<double>(s.full_counted_points);
        layers.dirty_cells += static_cast<double>(s.dirty_cells);
        layers.dirty_fraction += s.dirty_fraction;
      }
    }
  };

  std::vector<double> references;
  double next_reference = 0.0;  // api_seconds at which to time it again
  StopWatch elapsed;
  bool ok = true;
  while (ok && (detector->rounds() < first_round + kCheckEvery ||
                elapsed.ElapsedSeconds() < options.seconds)) {
    if (api_seconds >= next_reference) {
      references.push_back(reference.Time(config.num_threads));
      next_reference = api_seconds + kReferenceEvery;
    }
    const StreamBlock& block = schedule->NextArrival();
    StopWatch watch;
    Result<IngestResult> ingested = detector->Ingest(block);
    const double seconds = watch.ElapsedSeconds();
    api_seconds += seconds;
    ++ingests;
    if (!(ok = rec->Call(ingested.status(), "Ingest"))) break;
    // Per-round latency: an Ingest that admits k rounds costs k rounds'
    // work, and how arrivals batch up behind the watermark is a property
    // of the arrival order, not of the service.
    const size_t admitted = ingested.value().admitted.size();
    if (admitted == 0) {
      buffer_only.push_back(seconds);
    } else {
      latencies.push_back(seconds / static_cast<double>(admitted));
      latency_refs.push_back(InReferenceUnits(latencies.back(), references));
    }
    admit(ingested.value());

    if (detector->rounds() >= next_check) {
      next_check += kCheckEvery;
      rec->Check(StreamMatchesOracle(*schedule, detector->rounds(), *detector,
                                     spec),
                 "stream outliers differ from the oracle");
      if (options.trace && check_window == nullptr) {
        std::vector<PointId> ids;
        check_window = std::make_unique<Dataset>(
            schedule->Window(detector->rounds(), &ids));
      }
    }
    if (detector->rounds() > config.window_blocks) {
      schedule->Forget(detector->rounds() - config.window_blocks);
    }
  }
  // End of stream: deliver the rest of the generated arrivals, so the
  // admitted blocks stay a timestamp prefix, then drain the reorder buffer.
  while (ok && schedule->pending_arrivals() > 0) {
    StopWatch watch;
    Result<IngestResult> ingested = detector->Ingest(schedule->NextArrival());
    api_seconds += watch.ElapsedSeconds();
    ++ingests;
    if ((ok = rec->Call(ingested.status(), "Ingest"))) admit(ingested.value());
  }
  if (ok) {
    StopWatch watch;
    Result<IngestResult> flushed = detector->Flush();
    layers.flush_ms = watch.ElapsedSeconds() * 1e3;
    api_seconds += watch.ElapsedSeconds();
    if ((ok = rec->Call(flushed.status(), "Flush"))) admit(flushed.value());
  }
  if (options.trace) {
    trace::Stop();
    for (const trace::TraceEvent& event : trace::SnapshotEvents()) {
      if (std::strcmp(event.name, "stream_checkpoint") == 0) {
        commits.push_back(event.dur_us * 1e-6);
      }
    }
    trace::Clear();
  }
  const uint64_t commit_bytes =
      DirectoryBytes(config.checkpoint_dir) - store_bytes;
  const double peak_rss_mb = PeakRssMb(reference);
  if (ok) {
    rec->Check(StreamMatchesOracle(*schedule, detector->rounds(), *detector,
                                   spec),
               "stream outliers differ from the oracle at the end");
  }

  const double counted = static_cast<double>(
      std::min<uint64_t>(admitted_rounds, kCheckEvery));
  rec->Counter("counted_rounds", counted);
  rec->Counter("insert_pairs", layers.insert_pairs);
  rec->Counter("expiry_pairs", layers.expiry_pairs);
  rec->Counter("recounted_points", layers.recounted_points);
  rec->Counter("full_counted_points", layers.full_counted_points);
  rec->Counter("dirty_cells", layers.dirty_cells);
  for (double* mean :
       {&layers.insert_pairs, &layers.expiry_pairs, &layers.recounted_points,
        &layers.full_counted_points, &layers.dirty_cells,
        &layers.dirty_fraction}) {
    *mean /= std::max(counted, 1.0);
  }
  layers.pairs_per_s = feed_seconds > 0 ? pairs / feed_seconds : 0.0;
  layers.admitted_per_ingest =
      static_cast<double>(admitted_rounds) / std::max<uint64_t>(ingests, 1);
  layers.buffer_only_ingest_us = Median(buffer_only) * 1e6;
  layers.round_p99_ms = Percentile(latencies, 0.99) * 1e3;
  layers.round_max_ms = Percentile(latencies, 1.0) * 1e3;
  layers.resident_points = static_cast<double>(detector->resident_points());
  layers.saturated_points = static_cast<double>(detector->saturated_points());
  layers.commit_p50_ms = Median(commits) * 1e3;
  layers.commit_max_ms = Percentile(commits, 1.0) * 1e3;
  layers.bytes_per_commit =
      commits.empty() ? 0.0
                      : static_cast<double>(commit_bytes) / commits.size();
  layers.commit_share = api_seconds > 0 ? Sum(commits) / api_seconds : 0.0;
  detector.reset();
  if (localized) std::filesystem::remove_all(config.checkpoint_dir);

  if (options.trace) {
    AddStreamLayers(layers, rec);
    if (check_window != nullptr) {
      // The batch layers of a from-scratch batch detection of the window:
      // the work one incremental round avoids.
      const std::vector<PointId> expected =
          OracleOutliers(*check_window, spec.radius, spec.min_neighbors);
      AddBatchLayers(*check_window,
                     BatchConfig(spec.radius, spec.min_neighbors, 32,
                                 kBatchThreads),
                     expected, kWindowReplaySeconds, rec);
    }
    return;
  }
  AddEndToEnd(latencies, latency_refs, static_cast<double>(admitted_points),
              api_seconds, setup, peak_rss_mb, references, rec);
}

Record RunWorkload(const WorkloadSpec& spec, const Options& options) {
  Record rec(spec, options);
  if (spec.mode == Mode::kBatch) {
    RunBatch(spec, options, &rec);
  } else {
    RunStream(spec, options, &rec);
  }
  return rec;
}

std::string ShellQuote(const std::string& text) {
  std::string out = "'";
  for (char c : text) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  return out + "'";
}

// --workload all: every workload and pass in a child process of its own.
int RunAll(const char* self, const Options& options, const std::string& out) {
  std::string runs;
  int status = 0;
  for (const WorkloadSpec& spec : Workloads()) {
    for (int trace = 0; trace < 2; ++trace) {
      char args[160];
      std::snprintf(args, sizeof(args),
                    " --workload %s --seed %llu --seconds %.17g --trace %d",
                    spec.name, static_cast<unsigned long long>(options.seed),
                    options.seconds, trace);
      const std::string command = ShellQuote(self) + args + " --tmp_dir " +
                                  ShellQuote(options.tmp_dir);
      std::fprintf(stderr, "dod_bench: %s\n", command.c_str());
      std::FILE* child = popen(command.c_str(), "r");
      if (child == nullptr) return 1;
      std::string output;
      char buf[4096];
      size_t got = 0;
      while ((got = std::fread(buf, 1, sizeof(buf), child)) > 0) {
        output.append(buf, got);
      }
      if (pclose(child) != 0) status = 1;
      while (!output.empty() && output.back() == '\n') output.pop_back();
      const std::string line = output.substr(output.rfind('\n') + 1);
      if (line.rfind("{\"bench\"", 0) != 0) {
        std::fprintf(stderr, "dod_bench: %s trace %d printed no record\n",
                     spec.name, trace);
        status = 1;
        continue;
      }
      runs += (runs.empty() ? "" : ",\n") + line;
    }
  }
  std::FILE* file = std::fopen(out.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "dod_bench: cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(file,
               "{\"bench\":\"dod_bench\",\"host\":%s,\"seed\":%llu,"
               "\"seconds\":%s,\"runs\":[\n%s\n]}\n",
               HostJson().c_str(),
               static_cast<unsigned long long>(options.seed),
               JsonNumber(options.seconds).c_str(), runs.c_str());
  std::fclose(file);
  return status;
}

// --smoke: every workload at a tiny size; both passes must be correct and
// carry finite metrics, every end-to-end metric present and non-zero.
int RunSmoke(const Options& base) {
  int status = 0;
  for (const WorkloadSpec& full : Workloads()) {
    const WorkloadSpec spec = SmokeSize(full);
    for (int trace = 0; trace < 2; ++trace) {
      Options options = base;
      options.seconds = 0.2;
      options.trace = trace == 1;
      const Record rec = RunWorkload(spec, options);
      bool ok = rec.correct();
      for (const auto* list : {&rec.end_to_end(), &rec.layers()}) {
        for (const Metric& m : *list) ok = ok && std::isfinite(m.value);
      }
      if (trace == 0) {
        for (const char* name : kEndToEndNames) {
          const auto it = std::find_if(
              rec.end_to_end().begin(), rec.end_to_end().end(),
              [name](const Metric& m) { return m.name == name; });
          ok = ok && it != rec.end_to_end().end() && it->value > 0.0;
        }
      } else {
        ok = ok && !rec.layers().empty();
      }
      std::printf("smoke %-16s trace %d: %s\n", spec.name, trace,
                  ok ? "ok" : "FAILED");
      if (!ok) {
        std::printf("%s\n", rec.Json().c_str());
        status = 1;
      }
    }
  }
  return status;
}

int Main(int argc, char** argv) {
  Result<FlagParser> parsed = FlagParser::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "dod_bench: %s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const FlagParser& flags = parsed.value();
  Options options;
  // Any unsigned 64-bit seed, parsed exactly (GetInt goes through double).
  const std::string seed_text = flags.GetStringOr("seed", "1");
  char* seed_end = nullptr;
  errno = 0;
  const unsigned long long seed =
      std::strtoull(seed_text.c_str(), &seed_end, 10);
  const bool seed_ok = !seed_text.empty() && seed_text[0] != '-' &&
                       *seed_end == '\0' && errno == 0;
  const Result<double> seconds = flags.GetDouble("seconds", options.seconds);
  const Result<long long> trace = flags.GetInt("trace", 0);
  const std::string workload = flags.GetStringOr("workload", "");
  const std::string out = flags.GetStringOr("out", "");
  options.tmp_dir = flags.GetStringOr("tmp_dir", options.tmp_dir);
  const bool smoke = flags.GetBoolOr("smoke", false);
  if (!seed_ok || !seconds.ok() || !trace.ok() || !(seconds.value() > 0.0) || (trace.value() != 0 && trace.value() != 1) ||
      !flags.UnusedFlags().empty() || (!smoke && workload.empty())) {
    std::fprintf(stderr,
                 "usage: dod_bench --workload <name|all> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--out FILE] [--tmp_dir DIR]\n"
                 "       dod_bench --smoke\n");
    return 2;
  }
  options.seed = static_cast<uint64_t>(seed);
  options.seconds = seconds.value();
  options.trace = trace.value() == 1;
  std::error_code error;
  std::filesystem::create_directories(options.tmp_dir, error);

  if (smoke) return RunSmoke(options);
  if (workload == "all") {
    if (out.empty()) {
      std::fprintf(stderr, "dod_bench: --workload all needs --out FILE\n");
      return 2;
    }
    return RunAll(argv[0], options, out);
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "dod_bench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  const Record rec = RunWorkload(*spec, options);
  std::printf("%s\n", rec.Json().c_str());
  return rec.correct() ? 0 : 1;
}

}  // namespace
}  // namespace dod::bench

int main(int argc, char** argv) { return dod::bench::Main(argc, argv); }
