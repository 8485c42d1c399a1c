// Copyright 2026 The DOD Authors.
//
// Shuffle grouping throughput — the columnar counting-sort path against the
// classic sorted shuffle, on buckets shaped like the DOD detection job's:
// dense uint32_t cell keys carrying bit-packed id|support words.
//
// Three sections:
//
//   1. Grouping micro-bench: GroupBucket on one reduce-task bucket of
//      ~100k records, best-of-repeats, reported as records/sec per mode
//      plus the columnar/sorted speedup.
//
//   2. Spill regime: the same bucket written out as sorted runs and
//      grouped straight off disk — the columnar two-pass histogram for the
//      spill overhead ratio, the sorted path (append every run, one stable
//      sort) for merge throughput. Group structure is asserted identical
//      to in-memory.
//
//   3. End-to-end: the full pipeline under --shuffle sorted vs columnar on
//      a geo-like workload; the outlier set is asserted identical (speed
//      must never buy a different answer).
//
// Emits machine-readable BENCH_shuffle.json (records/sec per mode, the
// speedup ratio, spill_overhead, merge_records_per_sec, and process peak
// RSS) into the current directory.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "data/geo_like.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/spill.h"

namespace {

using dod::GroupedView;
using dod::ShuffleMode;
using dod::internal::GroupBucket;
using dod::internal::GroupPath;
using dod::internal::GroupScratch;

// Process peak RSS in MB (0 when the platform offers no getrusage).
double PeakRssMb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
#else
  return 0.0;
#endif
}

using Bucket = std::vector<std::pair<uint32_t, uint32_t>>;

// One reduce task's bucket as the detection job produces it: cell ids from
// a dense range (~50 records per cell, the supporting-area replication of a
// mid-density grid), values bit-packed id|support words, emission order
// interleaved across map tasks.
Bucket MakeBucket(size_t records, dod::Rng& rng) {
  const uint32_t num_cells =
      static_cast<uint32_t>(records / 50 > 0 ? records / 50 : 1);
  Bucket bucket;
  bucket.reserve(records);
  for (size_t i = 0; i < records; ++i) {
    const uint32_t cell = static_cast<uint32_t>(rng.NextBounded(num_cells));
    const uint32_t word = static_cast<uint32_t>(rng.NextBounded(1u << 31)) |
                          (rng.NextBounded(4) == 0 ? 0x80000000u : 0u);
    bucket.emplace_back(cell, word);
  }
  return bucket;
}

struct GroupingPoint {
  double records_per_sec = 0.0;
  size_t groups = 0;
  uint64_t checksum = 0;  // defeats dead-code elimination; equality-checked
};

// Best-of-`repeats` grouping throughput. Every iteration groups a fresh
// copy of the bucket (the copy is outside the timed region) so both modes
// start from the same cold emission-order input.
GroupingPoint MeasureGrouping(const Bucket& pristine, ShuffleMode mode,
                              int repeats) {
  GroupingPoint point;
  double best_seconds = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    Bucket bucket = pristine;
    GroupScratch<uint32_t, uint32_t> scratch;
    GroupPath path;
    dod::StopWatch watch;
    const GroupedView<uint32_t, uint32_t> groups =
        GroupBucket(bucket, mode, &scratch, &path);
    const double seconds = watch.ElapsedSeconds();
    if (mode == ShuffleMode::kColumnar && path != GroupPath::kColumnar) {
      std::fprintf(stderr, "FATAL: dense bucket fell back to sorting\n");
      std::exit(1);
    }
    uint64_t checksum = 0;
    for (size_t g = 0; g < groups.num_groups(); ++g) {
      checksum += static_cast<uint64_t>(groups.key(g)) * groups.size(g);
      checksum ^= groups.value(g, 0);
    }
    if (rep == 0 || seconds < best_seconds) {
      best_seconds = seconds;
      point.records_per_sec = static_cast<double>(pristine.size()) / seconds;
      point.groups = groups.num_groups();
      point.checksum = checksum;
    }
  }
  return point;
}

struct SpillRegimePoint {
  double spill_group_seconds = 0.0;   // write runs + columnar two-pass
  double merge_records_per_sec = 0.0; // sorted path off runs
  size_t runs = 0;
  size_t groups = 0;
  uint64_t checksum = 0;
};

uint64_t GroupChecksum(const GroupedView<uint32_t, uint32_t>& groups) {
  uint64_t checksum = 0;
  for (size_t g = 0; g < groups.num_groups(); ++g) {
    checksum += static_cast<uint64_t>(groups.key(g)) * groups.size(g);
    checksum ^= groups.value(g, 0);
  }
  return checksum;
}

// Best-of-`repeats` grouping through on-disk runs. Each repeat re-spills
// the bucket in `slices` flushes (as a map task under a tiny threshold
// would), so the write cost is inside the timed region — that is the
// overhead being measured. The sorted path is timed over the same runs.
SpillRegimePoint MeasureSpillRegime(const Bucket& pristine, int repeats,
                                    size_t slices) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "dod_bench_spill").string();
  fs::create_directories(dir);
  const std::string file = dod::internal::SpillFilePath(dir, "bench", 0);

  SpillRegimePoint point;
  double best_spill = 0.0;
  double best_merge = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    dod::internal::SpillGc gc;
    dod::StopWatch spill_watch;
    dod::internal::TaskSpiller<uint32_t, uint32_t> spiller(file, &gc);
    dod::internal::TaskSpiller<uint32_t, uint32_t>::Buckets one(1);
    const size_t per_slice = (pristine.size() + slices - 1) / slices;
    for (size_t start = 0; start < pristine.size(); start += per_slice) {
      const size_t end = std::min(start + per_slice, pristine.size());
      one[0].assign(pristine.begin() + start, pristine.begin() + end);
      spiller.Spill(one);
    }
    if (!spiller.status().ok() || !spiller.Finish(one).ok()) {
      std::fprintf(stderr, "FATAL: spill write failed\n");
      std::exit(1);
    }
    const std::vector<dod::internal::SpillRunInfo> runs = spiller.TakeRuns();
    std::vector<dod::internal::ShuffleSegment<uint32_t, uint32_t>> segments;
    segments.reserve(runs.size());
    for (const dod::internal::SpillRunInfo& run : runs) {
      segments.push_back(
          dod::internal::ShuffleSegment<uint32_t, uint32_t>{nullptr, run});
    }
    GroupScratch<uint32_t, uint32_t> scratch;
    GroupPath path;
    dod::internal::FallbackReason reason;
    auto grouped = dod::internal::GroupSegments(
        segments, ShuffleMode::kColumnar, &scratch, &path, &reason,
        /*budget=*/nullptr);
    const double spill_seconds = spill_watch.ElapsedSeconds();
    if (!grouped.ok() || path != GroupPath::kColumnar) {
      std::fprintf(stderr, "FATAL: spilled columnar grouping failed\n");
      std::exit(1);
    }
    const uint64_t checksum = GroupChecksum(grouped.value());
    const size_t num_groups = grouped.value().num_groups();

    // Sorted path over the same runs: append them all, one stable sort.
    GroupScratch<uint32_t, uint32_t> merge_scratch;
    GroupPath merge_path;
    dod::internal::FallbackReason merge_reason;
    dod::StopWatch merge_watch;
    auto merged = dod::internal::GroupSegments(
        segments, ShuffleMode::kSorted, &merge_scratch, &merge_path,
        &merge_reason, /*budget=*/nullptr);
    const double merge_seconds = merge_watch.ElapsedSeconds();
    if (!merged.ok() || merge_path != GroupPath::kSorted ||
        GroupChecksum(merged.value()) != checksum) {
      std::fprintf(stderr, "FATAL: sorted merge off runs disagrees\n");
      std::exit(1);
    }

    if (rep == 0 || spill_seconds < best_spill) {
      best_spill = spill_seconds;
      point.spill_group_seconds = spill_seconds;
      point.runs = runs.size();
      point.groups = num_groups;
      point.checksum = checksum;
    }
    if (rep == 0 || merge_seconds < best_merge) {
      best_merge = merge_seconds;
      point.merge_records_per_sec =
          static_cast<double>(pristine.size()) / merge_seconds;
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  return point;
}

}  // namespace

int main() {
  const size_t records = dod::bench::ScaledN(100000);
  dod::Rng rng(1234);
  const Bucket bucket = MakeBucket(records, rng);

  dod::bench::PrintHeader(
      "Shuffle grouping — columnar counting sort vs sorted merge",
      "One reduce-task bucket of dense cell keys + packed id|support words;\n"
      "best-of-repeats grouping throughput, then the full pipeline under\n"
      "both --shuffle modes with the outlier set asserted identical.",
      dod::bench::TimeBase::kWallClock);

  const GroupingPoint sorted =
      MeasureGrouping(bucket, ShuffleMode::kSorted, /*repeats=*/7);
  const GroupingPoint columnar =
      MeasureGrouping(bucket, ShuffleMode::kColumnar, /*repeats=*/7);
  if (sorted.checksum != columnar.checksum ||
      sorted.groups != columnar.groups) {
    std::fprintf(stderr, "FATAL: grouping paths disagree\n");
    return 1;
  }
  const double speedup = columnar.records_per_sec / sorted.records_per_sec;

  std::printf("%zu records, %zu cell groups\n\n", records, sorted.groups);
  std::printf("%10s %16s %9s\n", "mode", "records/sec", "speedup");
  std::printf("%10s %16.0f %8.2fx\n", "sorted", sorted.records_per_sec, 1.0);
  std::printf("%10s %16.0f %8.2fx\n", "columnar", columnar.records_per_sec,
              speedup);

  // Spill regime: same bucket through on-disk runs. The overhead compares
  // the full spilled pass (run writes + columnar two-pass off disk)
  // against the in-memory sorted grouping — the path the engine would
  // otherwise degrade to under the same budget pressure, so this ratio is
  // the price of choosing the spill over the budget fallback.
  const SpillRegimePoint spill =
      MeasureSpillRegime(bucket, /*repeats=*/7, /*slices=*/4);
  if (spill.checksum != columnar.checksum || spill.groups != columnar.groups) {
    std::fprintf(stderr, "FATAL: spilled grouping disagrees with in-memory\n");
    return 1;
  }
  const double fallback_seconds =
      static_cast<double>(records) / sorted.records_per_sec;
  const double spill_overhead = spill.spill_group_seconds / fallback_seconds;
  std::printf("\nspill regime (%zu runs):\n", spill.runs);
  std::printf("%22s %8.2fx\n", "spill_overhead", spill_overhead);
  std::printf("%22s %12.0f\n", "merge_records_per_sec",
              spill.merge_records_per_sec);

  // End-to-end: same pipeline, both shuffle modes.
  const dod::DetectionParams params{5.0, 4};
  const dod::Dataset data = dod::GenerateHierarchical(
      dod::MapLevel::kNewEngland, dod::bench::ScaledN(20000), 81);
  dod::DodConfig config = dod::bench::BenchConfig(
      dod::StrategyKind::kDmt, dod::AlgorithmKind::kCellBased, params,
      data.size());

  config.shuffle = ShuffleMode::kSorted;
  const dod::bench::RunResult e2e_sorted =
      dod::bench::RunPipeline(config, data, "sorted", /*repeats=*/3);
  config.shuffle = ShuffleMode::kColumnar;
  const dod::bench::RunResult e2e_columnar =
      dod::bench::RunPipeline(config, data, "columnar", /*repeats=*/3);
  if (e2e_sorted.outliers != e2e_columnar.outliers) {
    std::fprintf(stderr, "FATAL: --shuffle changed the outlier set\n");
    return 1;
  }

  std::printf("\npipeline (%zu points, %zu outliers):\n", data.size(),
              e2e_sorted.outliers);
  std::printf("%10s %12s\n", "mode", "wall");
  std::printf("%10s %11.4fs\n", "sorted", e2e_sorted.wall_seconds);
  std::printf("%10s %11.4fs  (%0.2fx)\n", "columnar",
              e2e_columnar.wall_seconds,
              e2e_sorted.wall_seconds / e2e_columnar.wall_seconds);

  const double peak_rss_mb = PeakRssMb();
  std::FILE* f = std::fopen("BENCH_shuffle.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_shuffle.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"shuffle\",\n");
  std::fprintf(f, "  \"records\": %zu,\n  \"groups\": %zu,\n", records,
               sorted.groups);
  std::fprintf(f,
               "  \"grouping\": [\n"
               "    {\"mode\": \"sorted\", \"records_per_sec\": %.0f},\n"
               "    {\"mode\": \"columnar\", \"records_per_sec\": %.0f}\n"
               "  ],\n",
               sorted.records_per_sec, columnar.records_per_sec);
  std::fprintf(f, "  \"columnar_speedup\": %.3f,\n", speedup);
  std::fprintf(f,
               "  \"spill\": {\"runs\": %zu, \"spill_overhead\": %.3f, "
               "\"merge_records_per_sec\": %.0f},\n",
               spill.runs, spill_overhead, spill.merge_records_per_sec);
  std::fprintf(f,
               "  \"pipeline\": {\"points\": %zu, \"outliers\": %zu, "
               "\"sorted_wall_seconds\": %.6f, "
               "\"columnar_wall_seconds\": %.6f},\n",
               data.size(), e2e_sorted.outliers, e2e_sorted.wall_seconds,
               e2e_columnar.wall_seconds);
  std::fprintf(f, "  \"peak_rss_mb\": %.1f\n}\n", peak_rss_mb);
  std::fclose(f);
  std::printf("\nwrote BENCH_shuffle.json (peak RSS %.1f MB)\n", peak_rss_mb);
  return 0;
}
