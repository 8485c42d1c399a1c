// Copyright 2026 The DOD Authors.
//
// Streaming benchmarks, five regimes:
//
// 1. Incremental vs from-scratch under localized traffic — the case for the
//    dirty-cell rule. A sliding window of spatially localized blocks
//    (traffic concentrated in a small patch per round, the small-delta
//    regime streams are built for) is advanced one block per round:
//
//      * incremental: one long-lived StreamingDetector Feed per round;
//      * from-scratch: a fresh StreamingDetector fed the whole window as
//        one block — the same counting kernels, arena staging and
//        threading, but every point counted, which is exactly what a
//        re-run over the window costs.
//
// 2. Incremental vs from-scratch under diffuse traffic — the case for
//    carrying per-point neighbor counts across rounds. Blocks uniform over
//    the whole domain make the dirty set approach every resident cell, yet
//    the incremental round stays O(block × ring).
//
// 3. Reorder-buffer overhead — the price of out-of-order admission. The
//    diffuse schedule is jitter-shuffled within a lateness bound and
//    replayed through the watermark reorder stage (Ingest + Flush); the
//    rate ratio against in-order Feed is reported as reorder_overhead.
//
// 4. Window scaling — a round must cost O(change), not O(window). The
//    same localized 512-point block traffic streams over a 16k-point and
//    a 256k-point window, the domain scaled so resident density (and so
//    the per-round insert pairs) match; window_scaling is rounds/s at 16k
//    over rounds/s at 256k, ~1 when nothing walks the whole window.
//
// 5. Threads — what the chunked dirty pass gains from num_threads. The
//    diffuse schedule (512-point blocks over a 32k window, and 4096-point
//    blocks over a 128k window) feeds one service per thread count (1, 2,
//    4), the same block to each in rotating order every round.
//    Report-only: on a host that gives the process about one core, more
//    threads only add hand-off cost.
//
// Outlier sets are asserted identical across every paired round (speed
// must never buy a different answer). Emits BENCH_streaming.json with
// rounds/sec per mode, the speedups and the mean dirty-cell fraction; CI
// smoke-checks small_delta_speedup (regime 1), diffuse_speedup
// (regime 2), reorder_overhead (regime 3) and window_scaling (regime 4).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "streaming/streaming_detector.h"

namespace {

using dod::PointId;
using dod::StreamBlock;
using dod::StreamingConfig;
using dod::StreamingDetector;

constexpr double kDomain = 64.0;  // localized: points in [0, kDomain)^2
constexpr double kPatch = 8.0;    // each block lands in one patch^2 region
constexpr double kRadius = 2.0;
constexpr int kMinNeighbors = 4;

StreamingDetector& Must(dod::Result<std::unique_ptr<StreamingDetector>>& r) {
  if (!r.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  return *r.value();
}

dod::OutlierDelta MustFeed(StreamingDetector& detector,
                           const StreamBlock& block,
                           double* seconds = nullptr) {
  dod::StopWatch watch;
  auto fed = detector.Feed(block);
  if (seconds != nullptr) *seconds += watch.ElapsedSeconds();
  if (!fed.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", fed.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(fed).value();
}

// A block schedule over a sliding window. Localized blocks are uniform in
// one random kPatch^2 patch of the [0, domain)^2 domain (kDomain unless
// given); diffuse blocks are uniform over a density-1 domain sized to the
// window, so every round touches cells everywhere.
struct Workload {
  size_t block_size = 0;
  size_t window_blocks = 0;
  bool diffuse = false;
  double domain = kDomain;
  std::deque<StreamBlock> window;  // current resident blocks, oldest first
  dod::Rng rng;
  uint64_t next_id = 0;
  uint64_t round = 0;

  Workload(size_t block_size, size_t window_points, bool diffuse,
           double localized_domain = kDomain)
      : block_size(block_size),
        window_blocks(window_points / block_size),
        diffuse(diffuse),
        domain(diffuse ? std::sqrt(static_cast<double>(window_points))
                       : localized_domain),
        rng(diffuse ? 0xD1FF : 0x57AE) {}

  StreamBlock NextBlock() {
    StreamBlock block(2);
    const double extent = diffuse ? domain : kPatch;
    const double px = diffuse ? 0.0 : rng.NextDouble() * (domain - kPatch);
    const double py = diffuse ? 0.0 : rng.NextDouble() * (domain - kPatch);
    for (size_t i = 0; i < block_size; ++i) {
      const double p[2] = {px + rng.NextDouble() * extent,
                           py + rng.NextDouble() * extent};
      block.Add(static_cast<PointId>(next_id++), p);
    }
    // Round index as timestamp: the reorder regime orders arrivals by it.
    block.timestamp = static_cast<double>(round++);
    return block;
  }

  StreamBlock Advance() {
    StreamBlock block = NextBlock();
    window.push_back(block);
    if (window.size() > window_blocks) window.pop_front();
    return block;
  }

  // Every resident point as one block (the from-scratch round's input).
  StreamBlock WholeWindow() const {
    StreamBlock all(2);
    for (const StreamBlock& block : window) {
      for (size_t i = 0; i < block.ids.size(); ++i) {
        all.Add(block.ids[i], block.points[static_cast<PointId>(i)]);
      }
    }
    return all;
  }
};

StreamingConfig ServiceConfig(size_t window_blocks) {
  StreamingConfig config;
  config.params.radius = kRadius;
  config.params.min_neighbors = kMinNeighbors;
  config.params.seed = 11;
  config.window_blocks = window_blocks;
  config.num_threads = 1;  // isolate the algorithmic win from threading
  return config;
}

struct ConfigResult {
  size_t block_size = 0;
  size_t window_points = 0;
  double incremental_rounds_per_sec = 0.0;
  double scratch_rounds_per_sec = 0.0;
  double speedup = 0.0;
  double mean_dirty_fraction = 0.0;
  double mean_recounted = 0.0;
};

// Regimes 1 and 2: one long-lived service advanced a block per round vs a
// fresh service fed the whole window.
ConfigResult MeasureIncremental(size_t block_size, size_t window_points,
                                int rounds, bool diffuse) {
  Workload workload(block_size, window_points, diffuse);
  auto created =
      StreamingDetector::Create(ServiceConfig(workload.window_blocks));
  StreamingDetector& incremental = Must(created);

  // Prefill the window (not measured).
  for (size_t b = 0; b < workload.window_blocks; ++b) {
    const StreamBlock block = workload.Advance();
    MustFeed(incremental, block);
  }

  // Measured steady-state rounds: each Feed appends one block and expires
  // the oldest. From-scratch is sampled every 4th round (it is the slow
  // side; a few samples pin its rate fine).
  ConfigResult result;
  result.block_size = block_size;
  result.window_points = workload.window_blocks * block_size;
  double incremental_seconds = 0.0;
  double scratch_seconds = 0.0;
  int scratch_samples = 0;
  for (int round = 0; round < rounds; ++round) {
    const StreamBlock block = workload.Advance();
    const dod::OutlierDelta delta =
        MustFeed(incremental, block, &incremental_seconds);
    result.mean_dirty_fraction += delta.stats.dirty_fraction;
    result.mean_recounted += static_cast<double>(delta.stats.recounted_points);

    if (round % 4 == 0) {
      auto scratch_created =
          StreamingDetector::Create(ServiceConfig(workload.window_blocks));
      StreamingDetector& scratch = Must(scratch_created);
      MustFeed(scratch, workload.WholeWindow(), &scratch_seconds);
      ++scratch_samples;
      if (scratch.outliers() != incremental.outliers()) {
        std::fprintf(stderr,
                     "FATAL: from-scratch disagrees at round %d "
                     "(block_size %zu)\n",
                     round, block_size);
        std::exit(1);
      }
    }
  }
  result.incremental_rounds_per_sec = rounds / incremental_seconds;
  result.scratch_rounds_per_sec = scratch_samples / scratch_seconds;
  result.speedup =
      result.incremental_rounds_per_sec / result.scratch_rounds_per_sec;
  result.mean_dirty_fraction /= rounds;
  result.mean_recounted /= rounds;
  return result;
}

// ---- Regime 3: reorder-buffer overhead under out-of-order arrival -------

// The same diffuse schedule consumed twice: in timestamp order through
// Feed, and shuffled within the lateness bound through the watermark
// reorder stage (Ingest + final Flush). Every shuffled arrival pays the
// canonical-position insert and the watermark/drain bookkeeping on top of
// the identical admitted rounds, so the rate ratio is the price of
// out-of-order admission itself.
struct ReorderResult {
  size_t block_size = 0;
  size_t window_points = 0;
  double inorder_rounds_per_sec = 0.0;
  double reorder_rounds_per_sec = 0.0;
  double overhead = 0.0;  // in-order rate / reorder rate (>= 1: slower)
  double mean_buffered = 0.0;
};

ReorderResult MeasureReorder(size_t block_size, size_t window_points,
                             int rounds) {
  const double lateness = 4.0;
  Workload workload(block_size, window_points, /*diffuse=*/true);
  auto inorder_created =
      StreamingDetector::Create(ServiceConfig(workload.window_blocks));
  StreamingConfig reorder_config = ServiceConfig(workload.window_blocks);
  reorder_config.watermark.enabled = true;
  reorder_config.watermark.lateness = lateness;
  auto reorder_created = StreamingDetector::Create(reorder_config);
  StreamingDetector& inorder = Must(inorder_created);
  StreamingDetector& reorder = Must(reorder_created);

  auto must_ingest = [&](const StreamBlock& block, double* seconds,
                         double* buffered) {
    dod::StopWatch watch;
    auto ingested = reorder.Ingest(block);
    *seconds += watch.ElapsedSeconds();
    if (!ingested.ok()) {
      std::fprintf(stderr, "FATAL: %s\n",
                   ingested.status().ToString().c_str());
      std::exit(1);
    }
    if (buffered != nullptr) {
      *buffered += static_cast<double>(ingested.value().buffered);
    }
  };

  // Prefill both services in order (not measured).
  double sink = 0.0;
  for (size_t b = 0; b < workload.window_blocks; ++b) {
    const StreamBlock block = workload.NextBlock();
    MustFeed(inorder, block);
    must_ingest(block, &sink, nullptr);
  }

  // Pre-generate the measured schedule, then jitter-shuffle the arrival
  // order within the lateness bound (priority = ts + U[0,L)) — the same
  // permutation family the conformance suite fuzzes.
  std::vector<StreamBlock> schedule;
  schedule.reserve(rounds);
  for (int round = 0; round < rounds; ++round) {
    schedule.push_back(workload.NextBlock());
  }
  std::vector<std::pair<double, size_t>> order;
  order.reserve(schedule.size());
  for (size_t i = 0; i < schedule.size(); ++i) {
    order.emplace_back(schedule[i].timestamp +
                           workload.rng.NextDouble() * lateness,
                       i);
  }
  std::sort(order.begin(), order.end());

  ReorderResult result;
  result.block_size = block_size;
  result.window_points = workload.window_blocks * block_size;
  double inorder_seconds = 0.0;
  double reorder_seconds = 0.0;
  for (const StreamBlock& block : schedule) {
    MustFeed(inorder, block, &inorder_seconds);
  }
  for (const auto& [priority, i] : order) {
    must_ingest(schedule[i], &reorder_seconds, &result.mean_buffered);
  }
  {
    dod::StopWatch watch;
    auto flushed = reorder.Flush();
    reorder_seconds += watch.ElapsedSeconds();
    if (!flushed.ok()) {
      std::fprintf(stderr, "FATAL: %s\n",
                   flushed.status().ToString().c_str());
      std::exit(1);
    }
  }
  if (reorder.outliers() != inorder.outliers()) {
    std::fprintf(stderr,
                 "FATAL: shuffled replay disagrees with in-order "
                 "(block_size %zu)\n",
                 block_size);
    std::exit(1);
  }
  result.inorder_rounds_per_sec = rounds / inorder_seconds;
  result.reorder_rounds_per_sec = rounds / reorder_seconds;
  result.overhead =
      result.inorder_rounds_per_sec / result.reorder_rounds_per_sec;
  result.mean_buffered /= rounds;
  return result;
}

// ---- Regime 4: per-round cost against window size ---------------------

struct ScalingResult {
  size_t block_size = 0;
  size_t window_points = 0;
  double domain = 0.0;
  double rounds_per_sec = 0.0;
  double mean_insert_pairs = 0.0;
  double mean_expiry_pairs = 0.0;
};

// Localized block_size-point blocks over a window_points window whose
// domain keeps the resident density of regime 1's 16k window over
// kDomain^2, so a block meets the same neighborhood whatever the window.
// Only Feed is timed, after a full (untimed) prefill.
ScalingResult MeasureWindowScaling(size_t block_size, size_t window_points,
                                   int rounds) {
  const double density =
      16384.0 / (kDomain * kDomain);  // regime 1's resident density
  ScalingResult result;
  result.block_size = block_size;
  result.window_points = window_points;
  result.domain = std::sqrt(static_cast<double>(window_points) / density);
  Workload workload(block_size, window_points, /*diffuse=*/false,
                    result.domain);
  auto created =
      StreamingDetector::Create(ServiceConfig(workload.window_blocks));
  StreamingDetector& detector = Must(created);
  for (size_t b = 0; b < workload.window_blocks; ++b) {
    MustFeed(detector, workload.NextBlock());
  }
  double seconds = 0.0;
  for (int round = 0; round < rounds; ++round) {
    const dod::OutlierDelta delta =
        MustFeed(detector, workload.NextBlock(), &seconds);
    result.mean_insert_pairs += static_cast<double>(delta.stats.insert_pairs);
    result.mean_expiry_pairs += static_cast<double>(delta.stats.expiry_pairs);
  }
  result.rounds_per_sec = rounds / seconds;
  result.mean_insert_pairs /= rounds;
  result.mean_expiry_pairs /= rounds;
  return result;
}

// ---- Regime 5: rounds/s against num_threads ----------------------------

constexpr int kThreadCounts[] = {1, 2, 4};
constexpr size_t kNumThreadCounts = std::size(kThreadCounts);

struct ThreadsResult {
  size_t block_size = 0;
  size_t window_points = 0;
  double rounds_per_sec[kNumThreadCounts] = {};
};

// One service per kThreadCounts entry over the same diffuse schedule; each
// round feeds the block to every service, starting one service later each
// round so no thread count always runs first. Only Feed is timed, after a
// full (untimed) prefill.
ThreadsResult MeasureThreads(size_t block_size, size_t window_points,
                             int rounds) {
  Workload workload(block_size, window_points, /*diffuse=*/true);
  std::unique_ptr<StreamingDetector> services[kNumThreadCounts];
  for (size_t t = 0; t < kNumThreadCounts; ++t) {
    StreamingConfig config = ServiceConfig(workload.window_blocks);
    config.num_threads = kThreadCounts[t];
    auto created = StreamingDetector::Create(config);
    Must(created);
    services[t] = std::move(created).value();
  }
  for (size_t b = 0; b < workload.window_blocks; ++b) {
    const StreamBlock block = workload.Advance();
    for (auto& service : services) MustFeed(*service, block);
  }
  double seconds[kNumThreadCounts] = {};
  for (int round = 0; round < rounds; ++round) {
    const StreamBlock block = workload.Advance();
    for (size_t i = 0; i < kNumThreadCounts; ++i) {
      const size_t t = (i + static_cast<size_t>(round)) % kNumThreadCounts;
      MustFeed(*services[t], block, &seconds[t]);
    }
    for (auto& service : services) {
      if (service->outliers() != services[0]->outliers()) {
        std::fprintf(stderr,
                     "FATAL: thread counts disagree at round %d "
                     "(block_size %zu)\n",
                     round, block_size);
        std::exit(1);
      }
    }
  }
  ThreadsResult result;
  result.block_size = block_size;
  result.window_points = workload.window_blocks * block_size;
  for (size_t t = 0; t < kNumThreadCounts; ++t) {
    result.rounds_per_sec[t] = rounds / seconds[t];
  }
  return result;
}

void PrintConfigTable(const std::vector<ConfigResult>& results) {
  std::printf("%11s %9s %14s %14s %9s %8s %9s\n", "block_size", "window",
              "incr rnd/s", "scratch rnd/s", "speedup", "dirty%", "recounts");
  for (const ConfigResult& r : results) {
    std::printf("%11zu %9zu %14.1f %14.1f %8.2fx %7.1f%% %9.1f\n",
                r.block_size, r.window_points, r.incremental_rounds_per_sec,
                r.scratch_rounds_per_sec, r.speedup,
                100.0 * r.mean_dirty_fraction, r.mean_recounted);
  }
}

void WriteConfigs(std::FILE* f, const char* key,
                  const std::vector<ConfigResult>& results) {
  std::fprintf(f, "  \"%s\": [\n", key);
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    std::fprintf(f,
                 "    {\"block_size\": %zu, \"window_points\": %zu, "
                 "\"incremental_rounds_per_sec\": %.1f, "
                 "\"scratch_rounds_per_sec\": %.1f, \"speedup\": %.3f, "
                 "\"mean_dirty_fraction\": %.4f, "
                 "\"mean_recounted_points\": %.1f}%s\n",
                 r.block_size, r.window_points, r.incremental_rounds_per_sec,
                 r.scratch_rounds_per_sec, r.speedup, r.mean_dirty_fraction,
                 r.mean_recounted, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
}

}  // namespace

int main() {
  const size_t window_points = dod::bench::ScaledN(16384);
  const int rounds = 20;

  dod::bench::PrintHeader(
      "Streaming: incremental neighbor-count summaries vs from-scratch",
      "Regime 1 (localized blocks) and regime 2 (diffuse blocks): one Feed\n"
      "per round updates only dirty cells vs a fresh detector counting the\n"
      "whole window. Outlier sets asserted identical across paired rounds.",
      dod::bench::TimeBase::kWallClock);

  std::vector<ConfigResult> results;
  for (size_t block_size : {128, 512, 2048}) {
    results.push_back(MeasureIncremental(block_size, window_points, rounds,
                                         /*diffuse=*/false));
  }
  PrintConfigTable(results);

  // Regime 2: diffuse traffic, smaller window (the dirty set covers the
  // domain either way; what differs is the per-round work).
  const size_t scatter_points = dod::bench::ScaledN(8192);
  std::vector<ConfigResult> diffuse_results;
  for (size_t block_size : {128, 512}) {
    diffuse_results.push_back(MeasureIncremental(block_size, scatter_points,
                                                 rounds, /*diffuse=*/true));
  }
  std::printf("\n");
  PrintConfigTable(diffuse_results);

  // Regime 3: the same diffuse schedule shuffled within a lateness bound
  // and replayed through the watermark reorder stage. The overhead ratio
  // prices out-of-order admission against in-order Feed.
  const std::vector<size_t> reorder_block_sizes = {512};
  std::vector<ReorderResult> reorder_results;
  std::printf("\n%11s %9s %14s %14s %9s %9s\n", "block_size", "window",
              "inord rnd/s", "reord rnd/s", "overhead", "buffered");
  for (size_t block_size : reorder_block_sizes) {
    const ReorderResult r = MeasureReorder(block_size, scatter_points, rounds);
    reorder_results.push_back(r);
    std::printf("%11zu %9zu %14.1f %14.1f %8.2fx %9.1f\n", r.block_size,
                r.window_points, r.inorder_rounds_per_sec,
                r.reorder_rounds_per_sec, r.overhead, r.mean_buffered);
  }

  // Regime 4: the same localized traffic over a 16x larger window. Fixed
  // sizes (not DOD_BENCH_SCALE-scaled): the ratio is the guarded number.
  std::vector<ScalingResult> scaling_results;
  std::printf("\n%11s %9s %9s %14s %14s %14s\n", "block_size", "window",
              "domain", "incr rnd/s", "insert pairs", "expiry pairs");
  for (size_t window : {size_t{16384}, size_t{262144}}) {
    const ScalingResult r = MeasureWindowScaling(512, window, 4 * rounds);
    scaling_results.push_back(r);
    std::printf("%11zu %9zu %9.0f %14.1f %14.0f %14.0f\n", r.block_size,
                r.window_points, r.domain, r.rounds_per_sec,
                r.mean_insert_pairs, r.mean_expiry_pairs);
  }

  // Regime 5: diffuse rounds at 1, 2 and 4 threads. Report-only.
  std::vector<ThreadsResult> thread_results;
  std::printf("\n%11s %9s %12s %12s %12s %8s %8s\n", "block_size", "window",
              "1 thr rnd/s", "2 thr rnd/s", "4 thr rnd/s", "2 vs 1", "4 vs 1");
  for (const auto& [block_size, window] :
       {std::pair<size_t, size_t>{512, dod::bench::ScaledN(32768)},
        std::pair<size_t, size_t>{4096, dod::bench::ScaledN(131072)}}) {
    const ThreadsResult r = MeasureThreads(block_size, window, rounds);
    thread_results.push_back(r);
    std::printf("%11zu %9zu %12.1f %12.1f %12.1f %7.2fx %7.2fx\n",
                r.block_size, r.window_points, r.rounds_per_sec[0],
                r.rounds_per_sec[1], r.rounds_per_sec[2],
                r.rounds_per_sec[1] / r.rounds_per_sec[0],
                r.rounds_per_sec[2] / r.rounds_per_sec[0]);
  }

  // The headline numbers CI guards: the smallest-block configurations,
  // where incrementality has the most to offer.
  const double small_delta_speedup = results.front().speedup;
  const double diffuse_speedup = diffuse_results.front().speedup;
  const double reorder_overhead = reorder_results.front().overhead;
  const double window_scaling = scaling_results.front().rounds_per_sec /
                                scaling_results.back().rounds_per_sec;

  std::FILE* f = std::fopen("BENCH_streaming.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_streaming.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"streaming\",\n  \"rounds\": %d,\n",
               rounds);
  WriteConfigs(f, "configs", results);
  WriteConfigs(f, "diffuse_configs", diffuse_results);
  std::fprintf(f, "  \"reorder_configs\": [\n");
  for (size_t i = 0; i < reorder_results.size(); ++i) {
    const ReorderResult& r = reorder_results[i];
    std::fprintf(f,
                 "    {\"block_size\": %zu, \"window_points\": %zu, "
                 "\"inorder_rounds_per_sec\": %.1f, "
                 "\"reorder_rounds_per_sec\": %.1f, \"overhead\": %.3f, "
                 "\"mean_buffered_blocks\": %.1f}%s\n",
                 r.block_size, r.window_points, r.inorder_rounds_per_sec,
                 r.reorder_rounds_per_sec, r.overhead, r.mean_buffered,
                 i + 1 < reorder_results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"scaling_configs\": [\n");
  for (size_t i = 0; i < scaling_results.size(); ++i) {
    const ScalingResult& r = scaling_results[i];
    std::fprintf(f,
                 "    {\"block_size\": %zu, \"window_points\": %zu, "
                 "\"domain\": %.1f, \"incremental_rounds_per_sec\": %.1f, "
                 "\"mean_insert_pairs\": %.1f, "
                 "\"mean_expiry_pairs\": %.1f}%s\n",
                 r.block_size, r.window_points, r.domain, r.rounds_per_sec,
                 r.mean_insert_pairs, r.mean_expiry_pairs,
                 i + 1 < scaling_results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"thread_configs\": [\n");
  for (size_t i = 0; i < thread_results.size(); ++i) {
    const ThreadsResult& r = thread_results[i];
    std::fprintf(f,
                 "    {\"block_size\": %zu, \"window_points\": %zu, "
                 "\"threads\": [1, 2, 4], "
                 "\"rounds_per_sec\": [%.1f, %.1f, %.1f]}%s\n",
                 r.block_size, r.window_points, r.rounds_per_sec[0],
                 r.rounds_per_sec[1], r.rounds_per_sec[2],
                 i + 1 < thread_results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"small_delta_speedup\": %.3f,\n", small_delta_speedup);
  std::fprintf(f, "  \"diffuse_speedup\": %.3f,\n", diffuse_speedup);
  std::fprintf(f, "  \"reorder_overhead\": %.3f,\n", reorder_overhead);
  std::fprintf(f, "  \"window_scaling\": %.3f\n}\n", window_scaling);
  std::fclose(f);
  std::printf(
      "\nwrote BENCH_streaming.json (small-delta speedup %.2fx, "
      "diffuse speedup %.2fx, reorder overhead %.2fx, window scaling "
      "%.2fx)\n",
      small_delta_speedup, diffuse_speedup, reorder_overhead,
      window_scaling);
  return 0;
}
