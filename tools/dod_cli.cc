// Copyright 2026 The DOD Authors.
//
// dod_cli — run distance-threshold outlier detection on a CSV file or a
// generated workload, with full control over the pipeline.
//
// Examples:
//   dod_cli --generate region:MA --n 30000 --radius 5 --k 4
//   dod_cli --input buildings.csv --columns 2,3 --radius 0.01 --k 10
//           --strategy cdriven --algorithm cell_based --out outliers.csv
//   dod_cli --generate tiger --n 50000 --plan-out plan.txt --verbose

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <system_error>

#include "common/flags.h"
#include "core/pipeline.h"
#include "core/plan_io.h"
#include "core/report.h"
#include "data/generators.h"
#include "data/geo_like.h"
#include "data/tiger_like.h"
#include "io/binary.h"
#include "io/csv.h"
#include "kernels/kernel_mode.h"
#include "observability/metrics.h"
#include "observability/profile.h"
#include "observability/trace.h"
#include "runtime/parallel_executor.h"

namespace {

constexpr const char* kUsage = R"(dod_cli — distributed distance-based outlier detection

Input (one of):
  --input PATH           CSV file of points
  --columns I,J,...      zero-based coordinate columns (default: all)
  --delimiter C          field delimiter (default ',')
  --skip-rows N          header rows to skip
  --generate KIND        synthetic data: uniform | region:OH|MA|CA|NY |
                         tiger | hierarchical:MA|NE|US|Planet
  --n N                  generated points (default 30000)
  --density D            mean density for --generate uniform, finite and
                         > 0 (default 0.05)

Outlier definition:
  --radius R             distance threshold r (default 5)
  --k K                  neighbor-count threshold k (default 4)

Pipeline:
  --strategy S           domain | unispace | ddriven | cdriven | dmt
                         (default dmt)
  --algorithm A          nested_loop | cell_based (baselines only)
  --partitions M         target partition count (default n/4000, >=32)
  --reducers R           reduce tasks (default 32)
  --blocks B             input blocks / map tasks (default 32)
  --threads N            worker threads running map/reduce tasks, <= 1024
                         (default: all hardware threads; 1 = sequential,
                         output is byte-identical for any N)
  --kernels MODE         distance kernels: auto (batched SIMD, default) |
                         scalar (per-pair reference); verdicts are
                         bit-identical either way
  --sample-rate Y        preprocessing sampling rate (default 0.05)
  --buckets B            mini buckets per dimension (default 64)
  --seed N               RNG seed (default 42)

Fault tolerance (simulation):
  --max_task_attempts N  retry budget per task (default 4)
  --fault_seed N         fault-injection seed (default 1)
  --fault_failure_prob P injected task-attempt failure probability
  --fault_drop_prob P    injected shuffle-record drop probability
  --fault_corrupt_prob P injected shuffle-record corruption probability
                         (probabilities in [0, 1]; injection is enabled
                         when any probability > 0)
  --fault_crash_task N   crash right after task N of --fault_crash_phase
                         commits (checkpoint already durable); -1 = off
  --fault_crash_phase P  map | reduce (default reduce)
  --fault_crash_exit     hard-exit (code 42, no flushes — simulated
                         kill -9) instead of a structured job error

Durable execution:
  --checkpoint_dir DIR   write a per-task checkpoint after every commit
                         under DIR/detect (and DIR/verify for --strategy
                         domain)
  --resume               skip tasks whose checkpoints committed; with the
                         same configuration the output is byte-identical
                         to an uninterrupted run
  --deadline_ms N        abort with DeadlineExceeded after N wall-clock ms
                         (checked between tasks and between cells)
  --memory_budget_mb N   cap arena / shuffle-scratch memory; the columnar
                         shuffle degrades to the sorted path when its
                         scratch alone would not fit (results identical),
                         genuine overcommit aborts with ResourceExhausted
  --spill_dir DIR        spill shuffle runs to DIR when a map task's
                         emitted bytes cross the spill threshold; output
                         stays byte-identical to the in-memory shuffle
  --spill_threshold_mb N per-map-task bytes before spilling (default 0 =
                         memory budget / 4, or 64 MiB without a budget)

Output:
  --out PATH             write outlier coordinates (.csv or .bin)
  --plan-out PATH        write the multi-tactic plan
  --verbose              per-stage and per-plan diagnostics

Observability:
  --trace_out PATH       write a Chrome trace of the run (one span per
                         pipeline phase and per task attempt; open at
                         chrome://tracing or ui.perfetto.dev)
  --metrics_out PATH     write the metrics registry plus per-partition
                         predicted-vs-measured cost snapshots as JSON
)";

// Upper bound of the integer flags that size the run or narrow to int.
constexpr long long kMaxInt = std::numeric_limits<int>::max();

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

dod::Result<dod::Dataset> LoadOrGenerate(const dod::FlagParser& flags) {
  const std::string input = flags.GetStringOr("input", "");
  if (!input.empty()) {
    // .bin files use the binary fast path.
    if (input.size() > 4 && input.substr(input.size() - 4) == ".bin") {
      return dod::ReadBinary(input);
    }
    dod::CsvOptions options;
    const std::string delimiter = flags.GetStringOr("delimiter", ",");
    if (!delimiter.empty()) options.delimiter = delimiter[0];
    auto skip = flags.GetIntInRange("skip-rows", 0, 0, kMaxInt);
    if (!skip.ok()) return skip.status();
    options.skip_rows = static_cast<int>(skip.value());
    const std::string columns = flags.GetStringOr("columns", "");
    if (!columns.empty()) {
      size_t pos = 0;
      while (pos <= columns.size()) {
        size_t comma = columns.find(',', pos);
        if (comma == std::string::npos) comma = columns.size();
        const std::string token = columns.substr(pos, comma - pos);
        int column = 0;
        const auto [end, ec] =
            std::from_chars(token.data(), token.data() + token.size(), column);
        if (token.empty() || ec != std::errc() ||
            end != token.data() + token.size() || column < 0) {
          return dod::Status::InvalidArgument(
              "--columns: '" + token +
              "' is not a non-negative integer column index");
        }
        options.columns.push_back(column);
        pos = comma + 1;
      }
    }
    return dod::ReadCsv(input, options);
  }

  const std::string kind = flags.GetStringOr("generate", "region:MA");
  auto n_flag = flags.GetIntInRange("n", 30000, 1, kMaxInt);
  if (!n_flag.ok()) return n_flag.status();
  const size_t n = static_cast<size_t>(n_flag.value());
  auto seed_flag = flags.GetInt("seed", 42);
  if (!seed_flag.ok()) return seed_flag.status();
  const uint64_t seed = static_cast<uint64_t>(seed_flag.value());

  if (kind == "uniform") {
    auto density = flags.GetPositiveDouble("density", 0.05);
    if (!density.ok()) return density.status();
    return dod::GenerateUniform(n, dod::DomainForDensity(n, density.value()),
                                seed);
  }
  if (kind == "tiger") return dod::GenerateTigerLike(n, seed);
  if (kind.rfind("region:", 0) == 0) {
    const std::string region = kind.substr(7);
    dod::GeoRegion geo;
    if (region == "OH") {
      geo = dod::GeoRegion::kOhio;
    } else if (region == "MA") {
      geo = dod::GeoRegion::kMassachusetts;
    } else if (region == "CA") {
      geo = dod::GeoRegion::kCalifornia;
    } else if (region == "NY") {
      geo = dod::GeoRegion::kNewYork;
    } else {
      return dod::Status::InvalidArgument("unknown region " + region);
    }
    return dod::GenerateGeoRegion(geo, n, seed);
  }
  if (kind.rfind("hierarchical:", 0) == 0) {
    const std::string level = kind.substr(13);
    dod::MapLevel map_level;
    if (level == "MA") {
      map_level = dod::MapLevel::kMassachusetts;
    } else if (level == "NE") {
      map_level = dod::MapLevel::kNewEngland;
    } else if (level == "US") {
      map_level = dod::MapLevel::kUnitedStates;
    } else if (level == "Planet") {
      map_level = dod::MapLevel::kPlanet;
    } else {
      return dod::Status::InvalidArgument("unknown level " + level);
    }
    return dod::GenerateHierarchical(map_level, n, seed);
  }
  return dod::Status::InvalidArgument("unknown --generate kind: " + kind);
}

dod::Result<dod::DodConfig> BuildConfig(const dod::FlagParser& flags,
                                        size_t n) {
  auto radius = flags.GetDouble("radius", 5.0);
  if (!radius.ok()) return radius.status();
  if (!(radius.value() > 0.0)) {
    return dod::Status::InvalidArgument("--radius must be > 0");
  }
  auto k = flags.GetIntInRange("k", 4, 1, kMaxInt);
  if (!k.ok()) return k.status();
  dod::DetectionParams params;
  params.radius = radius.value();
  params.min_neighbors = static_cast<int>(k.value());
  const std::string kernels = flags.GetStringOr("kernels", "auto");
  if (!dod::ParseKernelMode(kernels, &params.kernels)) {
    return dod::Status::InvalidArgument("--kernels must be scalar or auto");
  }

  const std::string strategy_name = flags.GetStringOr("strategy", "dmt");
  dod::StrategyKind strategy;
  if (strategy_name == "domain") {
    strategy = dod::StrategyKind::kDomain;
  } else if (strategy_name == "unispace") {
    strategy = dod::StrategyKind::kUniSpace;
  } else if (strategy_name == "ddriven") {
    strategy = dod::StrategyKind::kDDriven;
  } else if (strategy_name == "cdriven") {
    strategy = dod::StrategyKind::kCDriven;
  } else if (strategy_name == "dmt") {
    strategy = dod::StrategyKind::kDmt;
  } else {
    return dod::Status::InvalidArgument("unknown --strategy " +
                                        strategy_name);
  }

  const std::string algorithm_name =
      flags.GetStringOr("algorithm", "cell_based");
  dod::AlgorithmKind algorithm;
  if (algorithm_name == "nested_loop" || algorithm_name == "nl") {
    algorithm = dod::AlgorithmKind::kNestedLoop;
  } else if (algorithm_name == "cell_based" || algorithm_name == "cb") {
    algorithm = dod::AlgorithmKind::kCellBased;
  } else {
    return dod::Status::InvalidArgument("unknown --algorithm " +
                                        algorithm_name);
  }

  dod::DodConfig config =
      strategy == dod::StrategyKind::kDmt
          ? dod::DodConfig::Dmt(params)
          : dod::DodConfig::Baseline(params, strategy, algorithm);

  auto partitions = flags.GetIntInRange(
      "partitions", static_cast<long long>(std::max<size_t>(32, n / 4000)), 1,
      kMaxInt);
  if (!partitions.ok()) return partitions.status();
  config.target_partitions = static_cast<size_t>(partitions.value());
  auto reducers = flags.GetIntInRange("reducers", 32, 1, kMaxInt);
  if (!reducers.ok()) return reducers.status();
  config.num_reduce_tasks = static_cast<int>(reducers.value());
  auto blocks = flags.GetIntInRange("blocks", 32, 1, kMaxInt);
  if (!blocks.ok()) return blocks.status();
  config.num_blocks = static_cast<size_t>(blocks.value());
  // 0 = all hardware threads (the engine resolves it).
  auto threads = flags.GetIntInRange("threads", 0, 0, dod::kMaxThreads);
  if (!threads.ok()) return threads.status();
  config.num_threads = static_cast<int>(threads.value());
  auto rate = flags.GetDouble("sample-rate", 0.05);
  if (!rate.ok()) return rate.status();
  if (!std::isfinite(rate.value()) || rate.value() < 0.0) {
    return dod::Status::InvalidArgument(
        "--sample-rate must be a finite value >= 0");
  }
  config.sampler.rate = rate.value();
  auto buckets = flags.GetIntInRange("buckets", 64, 1, kMaxInt);
  if (!buckets.ok()) return buckets.status();
  config.sampler.buckets_per_dim = static_cast<int>(buckets.value());
  auto seed = flags.GetInt("seed", 42);
  if (!seed.ok()) return seed.status();
  config.seed = static_cast<uint64_t>(seed.value());

  auto attempts = flags.GetIntInRange("max_task_attempts", 4, 1, kMaxInt);
  if (!attempts.ok()) return attempts.status();
  config.max_task_attempts = static_cast<int>(attempts.value());

  auto fault_seed = flags.GetInt("fault_seed", 1);
  if (!fault_seed.ok()) return fault_seed.status();
  config.faults.seed = static_cast<uint64_t>(fault_seed.value());
  // Reads one injection probability; the negated range test also rejects
  // nan.
  const auto probability = [&](const char* name, double* out) {
    auto value = flags.GetDouble(name, 0.0);
    if (!value.ok()) return value.status();
    if (!(value.value() >= 0.0 && value.value() <= 1.0)) {
      return dod::Status::InvalidArgument(std::string("--") + name +
                                          " must be in [0, 1]");
    }
    *out = value.value();
    return dod::Status::Ok();
  };
  DOD_RETURN_IF_ERROR(
      probability("fault_failure_prob", &config.faults.task_failure_prob));
  DOD_RETURN_IF_ERROR(
      probability("fault_drop_prob", &config.faults.shuffle_drop_prob));
  DOD_RETURN_IF_ERROR(
      probability("fault_corrupt_prob", &config.faults.shuffle_corrupt_prob));
  config.faults.enabled = config.faults.task_failure_prob > 0.0 ||
                          config.faults.shuffle_drop_prob > 0.0 ||
                          config.faults.shuffle_corrupt_prob > 0.0;

  // Crash injection fires regardless of `faults.enabled` (it is not a
  // probabilistic fault; see FaultSpec).
  auto crash_task = flags.GetIntInRange("fault_crash_task", -1, -1, kMaxInt);
  if (!crash_task.ok()) return crash_task.status();
  config.faults.crash_at_task = static_cast<int>(crash_task.value());
  const std::string crash_phase = flags.GetStringOr("fault_crash_phase",
                                                    "reduce");
  if (crash_phase == "map") {
    config.faults.crash_phase = dod::TaskPhase::kMap;
  } else if (crash_phase == "reduce") {
    config.faults.crash_phase = dod::TaskPhase::kReduce;
  } else {
    return dod::Status::InvalidArgument(
        "--fault_crash_phase must be map or reduce");
  }
  config.faults.crash_exit = flags.GetBoolOr("fault_crash_exit", false);

  config.checkpoint_dir = flags.GetStringOr("checkpoint_dir", "");
  config.resume = flags.GetBoolOr("resume", false);
  if (config.resume && config.checkpoint_dir.empty()) {
    return dod::Status::InvalidArgument("--resume requires --checkpoint_dir");
  }
  auto deadline_ms = flags.GetIntInRange(
      "deadline_ms", 0, 0, std::numeric_limits<long long>::max());
  if (!deadline_ms.ok()) return deadline_ms.status();
  config.deadline_seconds = static_cast<double>(deadline_ms.value()) / 1000.0;
  auto budget_mb = flags.GetInt("memory_budget_mb", 0);
  if (!budget_mb.ok()) return budget_mb.status();
  if (budget_mb.value() < 0) {
    return dod::Status::InvalidArgument("--memory_budget_mb must be >= 0");
  }
  config.memory_budget_mb = static_cast<uint64_t>(budget_mb.value());
  config.spill_dir = flags.GetStringOr("spill_dir", "");
  auto spill_mb = flags.GetInt("spill_threshold_mb", 0);
  if (!spill_mb.ok()) return spill_mb.status();
  if (spill_mb.value() < 0) {
    return dod::Status::InvalidArgument("--spill_threshold_mb must be >= 0");
  }
  if (spill_mb.value() > 0 && config.spill_dir.empty()) {
    return dod::Status::InvalidArgument(
        "--spill_threshold_mb requires --spill_dir");
  }
  config.spill_threshold_mb = static_cast<uint64_t>(spill_mb.value());
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = dod::FlagParser::Parse(argc, argv);
  if (!parsed.ok()) return Fail(parsed.status().ToString());
  const dod::FlagParser& flags = parsed.value();
  if (flags.GetBoolOr("help", false)) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  auto data = LoadOrGenerate(flags);
  if (!data.ok()) return Fail(data.status().ToString());
  if (data.value().empty()) return Fail("no input points");

  auto config = BuildConfig(flags, data.value().size());
  if (!config.ok()) return Fail(config.status().ToString());

  const bool verbose = flags.GetBoolOr("verbose", false);
  const std::string out_path = flags.GetStringOr("out", "");
  const std::string plan_path = flags.GetStringOr("plan-out", "");
  const std::string trace_path = flags.GetStringOr("trace_out", "");
  const std::string metrics_path = flags.GetStringOr("metrics_out", "");
  const std::vector<std::string> unused = flags.UnusedFlags();
  if (!unused.empty()) {
    return Fail("unknown flag --" + unused.front() + " (see --help)");
  }

  if (!trace_path.empty()) dod::trace::Start();
  dod::DodPipeline pipeline(config.value());
  const dod::Result<dod::DodResult> run = pipeline.Run(data.value());
  if (!trace_path.empty()) {
    // Written even when the run failed: a trace of a failed run is the
    // most useful one.
    dod::trace::Stop();
    const dod::Status status = dod::trace::WriteChromeJson(trace_path);
    if (!status.ok()) return Fail(status.ToString());
  }
  if (!run.ok()) return Fail(run.status().ToString());
  const dod::DodResult& result = run.value();
  if (!trace_path.empty()) {
    std::printf("wrote trace to %s\n", trace_path.c_str());
  }

  if (!metrics_path.empty()) {
    const std::string json = dod::ObservabilityReportJson(
        dod::MetricsRegistry::Global().Snapshot(),
        result.detect_stats.partition_profiles);
    std::FILE* file = std::fopen(metrics_path.c_str(), "w");
    if (file == nullptr ||
        std::fwrite(json.data(), 1, json.size(), file) != json.size() ||
        std::fputc('\n', file) == EOF || std::fclose(file) != 0) {
      if (file != nullptr) std::fclose(file);
      return Fail("cannot write metrics to " + metrics_path);
    }
    std::printf("wrote metrics to %s\n", metrics_path.c_str());
  }

  std::fputs(
      dod::FormatRunReport(config.value(), result, data.value().size())
          .c_str(),
      stdout);

  if (verbose) {
    std::printf("detect job    : %s\n",
                result.detect_stats.ToString().c_str());
    for (const auto& [name, value] : result.detect_stats.counters.values()) {
      std::printf("  counter %s = %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }

  if (!out_path.empty()) {
    dod::Dataset outliers(data.value().dims());
    for (dod::PointId id : result.outliers) {
      outliers.Append(data.value()[id]);
    }
    const bool binary = out_path.size() > 4 &&
                        out_path.substr(out_path.size() - 4) == ".bin";
    const dod::Status status = binary ? dod::WriteBinary(outliers, out_path)
                                      : dod::WriteCsv(outliers, out_path);
    if (!status.ok()) return Fail(status.ToString());
    std::printf("wrote %zu outliers to %s\n", outliers.size(),
                out_path.c_str());
  }
  if (!plan_path.empty()) {
    const dod::Status status = dod::WritePlanFile(result.plan, plan_path);
    if (!status.ok()) return Fail(status.ToString());
    std::printf("wrote plan to %s\n", plan_path.c_str());
  }
  return 0;
}
