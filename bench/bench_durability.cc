// Copyright 2026 The DOD Authors.
//
// Durable-execution overhead — the full pipeline with task checkpointing
// against the same run without it, plus one crash/resume cycle.
//
// Three sections:
//
//   1. Baseline: best-of-repeats pipeline wall time, no durability.
//   2. Checkpointed: same workload with --checkpoint_dir set, every task's
//      committed output durably recorded (fresh store per repeat). The
//      headline number is the wall-time ratio, CI-guarded at <= 1.05:
//      durability must stay in the noise of the actual detection work.
//   3. Crash + resume: a run killed after its first committed reduce task,
//      then resumed; the resumed run must reproduce the baseline outlier
//      set exactly (resume_identical) and shows how much of the work the
//      checkpoints saved (resume_wall_seconds vs baseline).
//
// Emits machine-readable BENCH_durability.json into the current directory.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_util.h"
#include "common/timer.h"
#include "data/geo_like.h"

namespace {

namespace fs = std::filesystem;

// Total bytes of the store's payloads + manifest after a full run.
uint64_t StoreBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += static_cast<uint64_t>(entry.file_size(ec));
    }
  }
  return total;
}

}  // namespace

int main() {
  const dod::DetectionParams params{5.0, 4};
  const dod::Dataset data = dod::GenerateHierarchical(
      dod::MapLevel::kNewEngland, dod::bench::ScaledN(50000), 83);
  const dod::DodConfig base = dod::bench::BenchConfig(
      dod::StrategyKind::kDmt, dod::AlgorithmKind::kCellBased, params,
      data.size());
  const std::string store_dir =
      (fs::temp_directory_path() / "dod_bench_durability_ckpt").string();

  dod::bench::PrintHeader(
      "Durable execution — checkpointing overhead and crash recovery",
      "The full DMT pipeline with per-task checkpoints vs without; then a\n"
      "run crashed after its first committed reduce task and resumed. The\n"
      "checkpointed wall time must stay within 5% of the baseline, and the\n"
      "resumed run must reproduce the baseline outlier set exactly.",
      dod::bench::TimeBase::kWallClock);

  const dod::bench::RunResult baseline =
      dod::bench::RunPipeline(base, data, "baseline", /*repeats=*/5);

  dod::DodConfig durable = base;
  durable.checkpoint_dir = store_dir;
  const dod::bench::RunResult checkpointed =
      dod::bench::RunPipeline(durable, data, "checkpointed", /*repeats=*/5);
  if (baseline.outliers != checkpointed.outliers) {
    std::fprintf(stderr, "FATAL: checkpointing changed the outlier set\n");
    return 1;
  }
  const double overhead =
      checkpointed.wall_seconds / baseline.wall_seconds;
  const uint64_t store_bytes = StoreBytes(store_dir);

  // Crash after the first committed reduce task, then resume.
  dod::DodConfig crashing = durable;
  crashing.faults.crash_at_task = 0;
  crashing.faults.crash_phase = dod::TaskPhase::kReduce;
  const auto crashed = dod::DodPipeline(crashing).Run(data);
  if (crashed.ok()) {
    std::fprintf(stderr, "FATAL: injected crash did not fire\n");
    return 1;
  }
  dod::DodConfig resuming = durable;
  resuming.resume = true;
  dod::StopWatch resume_watch;
  const auto resumed = dod::DodPipeline(resuming).Run(data);
  const double resume_wall = resume_watch.ElapsedSeconds();
  if (!resumed.ok()) {
    std::fprintf(stderr, "FATAL: resume failed: %s\n",
                 resumed.status().ToString().c_str());
    return 1;
  }
  const bool resume_identical =
      resumed.value().outliers.size() == baseline.outliers &&
      dod::DodPipeline(base).RunOrDie(data).outliers ==
          resumed.value().outliers;

  std::printf("%zu points, %zu outliers\n\n", data.size(),
              baseline.outliers);
  std::printf("%14s %12s %10s\n", "run", "wall", "ratio");
  std::printf("%14s %11.4fs %9.2fx\n", "baseline", baseline.wall_seconds,
              1.0);
  std::printf("%14s %11.4fs %9.3fx\n", "checkpointed",
              checkpointed.wall_seconds, overhead);
  std::printf("%14s %11.4fs\n", "resumed", resume_wall);
  std::printf("\ncheckpoint store: %.1f KB, resume identical: %s\n",
              static_cast<double>(store_bytes) / 1024.0,
              resume_identical ? "yes" : "NO");
  if (!resume_identical) {
    std::fprintf(stderr, "FATAL: resumed run diverged from the baseline\n");
    return 1;
  }

  std::FILE* f = std::fopen("BENCH_durability.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_durability.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"durability\",\n");
  std::fprintf(f, "  \"points\": %zu,\n  \"outliers\": %zu,\n", data.size(),
               baseline.outliers);
  std::fprintf(f, "  \"baseline_wall_seconds\": %.6f,\n",
               baseline.wall_seconds);
  std::fprintf(f, "  \"checkpointed_wall_seconds\": %.6f,\n",
               checkpointed.wall_seconds);
  std::fprintf(f, "  \"checkpoint_overhead\": %.4f,\n", overhead);
  std::fprintf(f, "  \"checkpoint_store_bytes\": %llu,\n",
               static_cast<unsigned long long>(store_bytes));
  std::fprintf(f, "  \"resume_wall_seconds\": %.6f,\n", resume_wall);
  std::fprintf(f, "  \"resume_identical\": %s\n}\n",
               resume_identical ? "true" : "false");
  std::fclose(f);
  std::printf("wrote BENCH_durability.json (overhead %.3fx)\n", overhead);

  std::error_code ec;
  fs::remove_all(store_dir, ec);
  return 0;
}
