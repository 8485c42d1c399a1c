// Copyright 2026 The DOD Authors.
//
// dod_stream_cli — replay a block schedule through the streaming outlier
// service (src/streaming/) and log one verdict-delta line per round.
//
// The tool slices a generated dataset into consecutive fixed-size blocks
// and feeds them in order through a StreamingDetector with a count-based
// sliding window. The per-round delta log is fully deterministic (no
// timings), so two replays of the same schedule — including one
// interrupted by --kill_after_round and continued with --resume — must
// produce byte-identical logs; CI diffs them. Timings appear only in the
// closing stdout summary: resident, outlier and saturated-point counts
// plus the exact p50/p99 round latency of the rounds this process
// admitted.
//
// With --lateness the blocks go through the watermark reorder stage
// (Ingest) instead of in-order Feed, and --reorder_seed shuffles the
// arrival order within the lateness bound (priority = timestamp + a
// seeded uniform jitter in [0, L), so no block ever arrives late): the
// admitted-order delta log must still be byte-identical to the in-order
// run's — CI diffs that too.
//
// Examples:
//   dod_stream_cli --generate uniform --n 20000 --block_size 500
//                  --window 8 --radius 2 --k 4 --delta_out deltas.log
//   dod_stream_cli ... --oracle            # cross-check every round
//                                          # against a batch pipeline run
//   dod_stream_cli ... --lateness 4 --reorder_seed 7   # shuffled replay
//   dod_stream_cli ... --checkpoint_dir ck --kill_after_round 12
//   dod_stream_cli ... --checkpoint_dir ck --resume   # finish the schedule

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "data/tiger_like.h"
#include "kernels/kernel_mode.h"
#include "mapreduce/shuffle.h"
#include "observability/metrics.h"
#include "observability/profile.h"
#include "observability/trace.h"
#include "streaming/streaming_detector.h"

namespace {

constexpr const char* kUsage = R"(dod_stream_cli — streaming outlier detection over a replayed block schedule

Workload:
  --generate KIND        uniform (default) | tiger
  --n N                  total points in the schedule (default 20000)
  --density D            mean density for uniform data (default 0.05)
  --seed N               RNG seed (default 42)
  --block_size B         points per ingested block (default 500)

Outlier definition:
  --radius R             distance threshold r (default 5)
  --k K                  neighbor-count threshold k (default 4)
  --kernels MODE         scalar | auto (default auto; verdicts identical)

Streaming service:
  --window W             resident blocks in the sliding window (default 8)
  --cell_side S          grid cell side (default: r)
  --threads N            threads fanning out over dirty cells (default 1;
                         0 = all hardware threads; deltas identical)

Out-of-order admission:
  --lateness L           enable the watermark reorder stage with bounded
                         lateness L (timestamp units = block indices);
                         blocks go through Ingest and admit once the
                         watermark passes them (default: disabled)
  --idle_timeout T       exclude sources lagging the global clock by more
                         than T from the watermark (default 0 = never)
  --source_id N          label every replayed block with this source id
                         (default 0)
  --reorder_seed N       shuffle the arrival order within the lateness
                         bound (seeded, deterministic; requires
                         --lateness > 0; default 0 = in-order arrival)

Durability:
  --checkpoint_dir DIR   commit window state every --checkpoint_every
                         rounds (default 1)
  --resume               restore the latest committed round and continue
                         the schedule from there
  --kill_after_round N   hard-exit (code 42, no flushes beyond the delta
                         log — simulated kill -9) right after round N

Verification and output:
  --oracle               after every round, re-detect the window from
                         scratch with the batch pipeline and compare
                         outlier sets (exit 1 on any mismatch)
  --oracle_skip_empty    skip the batch re-run on rounds whose delta is
                         empty — the verdict set cannot have changed
                         (default off: every round cross-checks)
  --shuffle MODE         columnar | sorted (oracle pipeline only)
  --spill_dir DIR        spill the oracle pipeline's shuffle runs to DIR
                         past the threshold (verdicts stay byte-identical)
  --spill_threshold_mb N per-map-task bytes before the oracle shuffle
                         spills (default 0 = budget-derived / 64 MiB)
  --delta_out PATH       deterministic per-round delta log (append mode
                         under --resume, else truncate)
  --trace_out PATH       Chrome trace (stream.round spans)
  --metrics_out PATH     metrics registry JSON (stream.* families)
)";

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

// Seeded arrival-order jitter (SplitMix64; same generator family the fuzz
// tests use). Deterministic across platforms.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double UniformDouble(uint64_t* state) {
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

// Nearest-rank q-quantile of `values` (sorted in place): the smallest
// value with at least q of the samples at or below it. Exact, unlike the
// metrics registry's log2-bucket histograms.
double NearestRank(std::vector<double>* values, double q) {
  std::sort(values->begin(), values->end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values->size())));
  rank = std::clamp<size_t>(rank, 1, values->size());
  return (*values)[rank - 1];
}

std::string IdList(const std::vector<dod::PointId>& ids) {
  std::string out = "[";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(ids[i]);
  }
  out += "]";
  return out;
}

struct Schedule {
  dod::Dataset data = dod::Dataset(2);
  size_t block_size = 0;
  size_t num_blocks = 0;
  size_t window_blocks = 0;

  // Stream ids of block b: the consecutive dataset ids [begin, end).
  size_t BlockBegin(size_t b) const { return b * block_size; }
  size_t BlockEnd(size_t b) const {
    return std::min(data.size(), (b + 1) * block_size);
  }
  // Blocks resident after round r (1-based; blocks [r - W, r) clipped).
  size_t FirstResident(size_t round) const {
    return round > window_blocks ? round - window_blocks : 0;
  }
};

// From-scratch batch verdicts over the window contents after `round`,
// as stream ids. The streaming service must match this set exactly.
dod::Result<std::vector<dod::PointId>> OracleOutliers(
    const Schedule& schedule, size_t round, const dod::DodConfig& config) {
  dod::Dataset window(schedule.data.dims());
  std::vector<dod::PointId> window_ids;
  for (size_t b = schedule.FirstResident(round); b < round; ++b) {
    for (size_t i = schedule.BlockBegin(b); i < schedule.BlockEnd(b); ++i) {
      window.Append(schedule.data[static_cast<dod::PointId>(i)]);
      window_ids.push_back(static_cast<dod::PointId>(i));
    }
  }
  if (window.empty()) return std::vector<dod::PointId>{};
  dod::DodPipeline pipeline(config);
  DOD_ASSIGN_OR_RETURN(dod::DodResult result, pipeline.Run(window));
  std::vector<dod::PointId> outliers;
  outliers.reserve(result.outliers.size());
  for (dod::PointId local : result.outliers) {
    outliers.push_back(window_ids[local]);
  }
  // The pipeline reports ascending local ids and window_ids is ascending,
  // so the mapped set is already sorted like StreamingDetector::outliers().
  return outliers;
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

  auto n_flag = flags.GetInt("n", 20000);
  auto seed_flag = flags.GetInt("seed", 42);
  auto block_flag = flags.GetInt("block_size", 500);
  auto window_flag = flags.GetInt("window", 8);
  auto radius_flag = flags.GetDouble("radius", 5.0);
  auto k_flag = flags.GetInt("k", 4);
  auto threads_flag = flags.GetInt("threads", 1);
  auto cell_side_flag = flags.GetDouble("cell_side", 0.0);
  auto every_flag = flags.GetInt("checkpoint_every", 1);
  auto kill_flag = flags.GetInt("kill_after_round", 0);
  auto density_flag = flags.GetDouble("density", 0.05);
  auto lateness_flag = flags.GetDouble("lateness", -1.0);
  auto idle_flag = flags.GetDouble("idle_timeout", 0.0);
  auto source_flag = flags.GetInt("source_id", 0);
  auto reorder_flag = flags.GetInt("reorder_seed", 0);
  for (const dod::Status& status :
       {n_flag.status(), seed_flag.status(), block_flag.status(),
        window_flag.status(), radius_flag.status(), k_flag.status(),
        threads_flag.status(), cell_side_flag.status(), every_flag.status(),
        kill_flag.status(), density_flag.status(), lateness_flag.status(), idle_flag.status(), source_flag.status(),
        reorder_flag.status()}) {
    if (!status.ok()) return Fail(status.ToString());
  }
  if (n_flag.value() < 1 || block_flag.value() < 1 || window_flag.value() < 1) {
    return Fail("--n, --block_size and --window must be >= 1");
  }
  if (radius_flag.value() <= 0.0 || k_flag.value() < 1) {
    return Fail("--radius must be > 0, --k >= 1");
  }

  Schedule schedule;
  const size_t n = static_cast<size_t>(n_flag.value());
  const uint64_t seed = static_cast<uint64_t>(seed_flag.value());
  const std::string kind = flags.GetStringOr("generate", "uniform");
  if (kind == "uniform") {
    schedule.data = dod::GenerateUniform(
        n, dod::DomainForDensity(n, density_flag.value()), seed);
  } else if (kind == "tiger") {
    schedule.data = dod::GenerateTigerLike(n, seed);
  } else {
    return Fail("unknown --generate kind: " + kind);
  }
  schedule.block_size = static_cast<size_t>(block_flag.value());
  schedule.num_blocks =
      (schedule.data.size() + schedule.block_size - 1) / schedule.block_size;
  schedule.window_blocks = static_cast<size_t>(window_flag.value());

  dod::StreamingConfig config;
  config.params.radius = radius_flag.value();
  config.params.min_neighbors = static_cast<int>(k_flag.value());
  config.params.seed = seed;
  const std::string kernels = flags.GetStringOr("kernels", "auto");
  if (!dod::ParseKernelMode(kernels, &config.params.kernels)) {
    return Fail("--kernels must be scalar or auto");
  }
  config.num_threads = static_cast<int>(threads_flag.value());
  config.window_blocks = schedule.window_blocks;
  config.cell_side = cell_side_flag.value();
  // --lateness (any value >= 0) switches the replay from in-order Feed to
  // the watermark reorder stage.
  const bool watermark = lateness_flag.value() >= 0.0;
  if (watermark) {
    config.watermark.enabled = true;
    config.watermark.lateness = lateness_flag.value();
    if (idle_flag.value() < 0.0) return Fail("--idle_timeout must be >= 0");
    config.watermark.idle_timeout = idle_flag.value();
  } else if (idle_flag.value() != 0.0) {
    return Fail("--idle_timeout requires --lateness");
  }
  if (source_flag.value() < 0) return Fail("--source_id must be >= 0");
  const uint32_t source_id = static_cast<uint32_t>(source_flag.value());
  const uint64_t reorder_seed =
      static_cast<uint64_t>(std::max(0LL, reorder_flag.value()));
  if (reorder_seed != 0 && (!watermark || lateness_flag.value() <= 0.0)) {
    return Fail(
        "--reorder_seed shuffles arrivals within the lateness bound and "
        "needs --lateness > 0");
  }
  config.checkpoint_dir = flags.GetStringOr("checkpoint_dir", "");
  config.resume = flags.GetBoolOr("resume", false);
  config.checkpoint_every = static_cast<uint64_t>(every_flag.value());
  // The schedule's identity: resuming under a different workload would
  // silently replay the wrong blocks, so it is part of the job key. The
  // arrival order (reorder seed, source label) is part of the schedule.
  config.job_tag = kind + "/n=" + std::to_string(n) +
                   "/block=" + std::to_string(schedule.block_size) +
                   "/seed=" + std::to_string(seed);
  if (watermark) {
    config.job_tag += "/reorder=" + std::to_string(reorder_seed) +
                      "/source=" + std::to_string(source_id);
  }

  // Oracle pipeline configuration (batch DMT over the window contents).
  dod::DodConfig oracle_config = dod::DodConfig::Dmt(config.params);
  oracle_config.num_threads = config.num_threads;
  oracle_config.seed = seed;
  const std::string shuffle = flags.GetStringOr("shuffle", "columnar");
  if (!dod::ParseShuffleMode(shuffle, &oracle_config.shuffle)) {
    return Fail("--shuffle must be sorted or columnar");
  }
  // Spill policy of the oracle pipelines. Spilling never changes verdicts,
  // so the oracle comparison is as strict as ever.
  oracle_config.spill_dir = flags.GetStringOr("spill_dir", "");
  auto spill_mb = flags.GetInt("spill_threshold_mb", 0);
  if (!spill_mb.ok()) return Fail(spill_mb.status().ToString());
  if (spill_mb.value() < 0) return Fail("--spill_threshold_mb must be >= 0");
  if (spill_mb.value() > 0 && oracle_config.spill_dir.empty()) {
    return Fail("--spill_threshold_mb requires --spill_dir");
  }
  oracle_config.spill_threshold_mb = static_cast<uint64_t>(spill_mb.value());

  const bool oracle = flags.GetBoolOr("oracle", false);
  const bool oracle_skip_empty = flags.GetBoolOr("oracle_skip_empty", false);
  if (oracle_skip_empty && !oracle) {
    return Fail("--oracle_skip_empty requires --oracle");
  }
  const uint64_t kill_after =
      static_cast<uint64_t>(std::max(0LL, kill_flag.value()));
  const std::string delta_path = flags.GetStringOr("delta_out", "");
  const std::string trace_path = flags.GetStringOr("trace_out", "");
  const std::string metrics_path = flags.GetStringOr("metrics_out", "");
  const std::vector<std::string> unused = flags.UnusedFlags();
  if (!unused.empty()) {
    return Fail("unknown flag --" + unused.front() + " (see --help)");
  }

  if (!trace_path.empty()) dod::trace::Start();

  auto created = dod::StreamingDetector::Create(config);
  if (!created.ok()) return Fail(created.status().ToString());
  dod::StreamingDetector& detector = *created.value();

  std::FILE* delta_file = nullptr;
  if (!delta_path.empty()) {
    // Append under --resume so the restored run extends the log the killed
    // run left behind; the concatenation must equal an uninterrupted log.
    delta_file = std::fopen(delta_path.c_str(), config.resume ? "a" : "w");
    if (delta_file == nullptr) {
      return Fail("cannot open --delta_out " + delta_path);
    }
  }

  // The outlier set reconstructed from the applied deltas: one Ingest can
  // admit several rounds, so per-round oracle checks can't read the
  // detector's (end-of-drain) set — they replay the deltas instead.
  std::vector<dod::PointId> applied(detector.outliers());
  // Wall time of every round this process admitted, for the closing
  // summary's latency quantiles (never written to the delta log).
  std::vector<double> round_seconds;

  // One admitted round: log its delta line and cross-check the oracle.
  // Timestamps are block indices and admission is canonical-order, so the
  // window after admitted round R holds exactly blocks [R - W, R) — the
  // same contents an in-order replay has, whatever the arrival order.
  const auto emit_round = [&](const dod::OutlierDelta& delta) -> int {
    round_seconds.push_back(delta.stats.round_seconds);
    if (oracle) {
      std::vector<dod::PointId> next;
      std::set_difference(applied.begin(), applied.end(),
                          delta.newly_cleared.begin(),
                          delta.newly_cleared.end(),
                          std::back_inserter(next));
      applied.clear();
      std::merge(next.begin(), next.end(), delta.newly_flagged.begin(),
                 delta.newly_flagged.end(), std::back_inserter(applied));
    }
    if (delta_file != nullptr) {
      std::fprintf(delta_file,
                   "round=%llu appended=%zu expired=%zu resident=%zu "
                   "cells=%zu dirty=%zu flagged=%s cleared=%s\n",
                   static_cast<unsigned long long>(delta.stats.round),
                   delta.stats.appended_points, delta.stats.expired_points,
                   delta.stats.resident_points, delta.stats.resident_cells,
                   delta.stats.dirty_cells,
                   IdList(delta.newly_flagged).c_str(),
                   IdList(delta.newly_cleared).c_str());
      std::fflush(delta_file);
    }
    if (oracle) {
      // An empty delta means the verdict set is unchanged since the
      // previous (checked) round; --oracle_skip_empty trusts that and
      // saves the batch re-run.
      if (oracle_skip_empty && delta.newly_flagged.empty() &&
          delta.newly_cleared.empty()) {
        return 0;
      }
      auto expected = OracleOutliers(
          schedule, static_cast<size_t>(delta.stats.round), oracle_config);
      if (!expected.ok()) return Fail(expected.status().ToString());
      if (expected.value() != applied) {
        std::fprintf(stderr,
                     "oracle mismatch at round %llu: stream has %zu "
                     "outliers, batch has %zu\n",
                     static_cast<unsigned long long>(delta.stats.round),
                     applied.size(), expected.value().size());
        return 1;
      }
    }
    return 0;
  };

  const auto make_block = [&](size_t b) {
    dod::StreamBlock block(schedule.data.dims());
    for (size_t i = schedule.BlockBegin(b); i < schedule.BlockEnd(b); ++i) {
      block.Add(static_cast<dod::PointId>(i),
                schedule.data[static_cast<dod::PointId>(i)]);
    }
    block.timestamp = static_cast<double>(b);
    block.source_id = source_id;
    return block;
  };

  if (!watermark) {
    // Rounds completed before this process (0 on a fresh run): the
    // schedule resumes at the next unfed block.
    for (size_t b = detector.rounds(); b < schedule.num_blocks; ++b) {
      auto fed = detector.Feed(make_block(b));
      if (!fed.ok()) return Fail(fed.status().ToString());
      const int rc = emit_round(fed.value());
      if (rc != 0) return rc;
      if (kill_after > 0 && fed.value().stats.round >= kill_after) {
        // Simulated kill -9: the delta log is already flushed, the
        // checkpoint (if any) already committed inside Feed. No
        // destructors, no stream flushes.
        std::_Exit(42);
      }
    }
  } else {
    // Arrival order: block indices, optionally shuffled within the
    // lateness bound — priority = timestamp + jitter in [0, L), so an
    // earlier arrival is never more than L ahead of a later block's
    // timestamp and nothing is rejected as late.
    std::vector<size_t> arrival_order(schedule.num_blocks);
    for (size_t b = 0; b < schedule.num_blocks; ++b) arrival_order[b] = b;
    if (reorder_seed != 0) {
      std::vector<std::pair<double, size_t>> priority;
      priority.reserve(schedule.num_blocks);
      uint64_t state = reorder_seed;
      for (size_t b = 0; b < schedule.num_blocks; ++b) {
        priority.emplace_back(
            static_cast<double>(b) +
                UniformDouble(&state) * lateness_flag.value(),
            b);
      }
      std::stable_sort(priority.begin(), priority.end());
      for (size_t i = 0; i < schedule.num_blocks; ++i) {
        arrival_order[i] = priority[i].second;
      }
    }
    // Arrivals accepted before this process: the resumed replay continues
    // at that offset of the (deterministic) arrival order — admitted
    // rounds and the reorder buffer were both restored.
    for (size_t a = static_cast<size_t>(detector.arrivals());
         a < schedule.num_blocks; ++a) {
      auto ingested = detector.Ingest(make_block(arrival_order[a]));
      if (!ingested.ok()) return Fail(ingested.status().ToString());
      for (const dod::OutlierDelta& delta : ingested.value().admitted) {
        const int rc = emit_round(delta);
        if (rc != 0) return rc;
      }
      // The kill fires only once every admitted delta of this Ingest is
      // logged: the checkpoint inside Ingest already covers them, so the
      // resumed run continues at the next arrival with no lost lines.
      if (kill_after > 0 && detector.rounds() >= kill_after) {
        std::_Exit(42);
      }
    }
    // End of schedule: admit everything still parked behind the watermark.
    auto flushed = detector.Flush();
    if (!flushed.ok()) return Fail(flushed.status().ToString());
    for (const dod::OutlierDelta& delta : flushed.value().admitted) {
      const int rc = emit_round(delta);
      if (rc != 0) return rc;
    }
  }
  if (oracle && applied != detector.outliers()) {
    std::fprintf(stderr,
                 "delta replay mismatch: applying all deltas gives %zu "
                 "outliers, detector has %zu\n",
                 applied.size(), detector.outliers().size());
    return 1;
  }
  if (delta_file != nullptr) std::fclose(delta_file);

  if (!trace_path.empty()) {
    dod::trace::Stop();
    const dod::Status status = dod::trace::WriteChromeJson(trace_path);
    if (!status.ok()) return Fail(status.ToString());
    std::printf("wrote trace to %s\n", trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    const std::string json = dod::ObservabilityReportJson(
        dod::MetricsRegistry::Global().Snapshot(), {});
    std::FILE* file = std::fopen(metrics_path.c_str(), "w");
    if (file == nullptr ||
        std::fwrite(json.data(), 1, json.size(), file) != json.size() ||
        std::fputc('\n', file) == EOF || std::fclose(file) != 0) {
      if (file != nullptr) std::fclose(file);
      return Fail("cannot write metrics to " + metrics_path);
    }
    std::printf("wrote metrics to %s\n", metrics_path.c_str());
  }

  // Latency covers this process's rounds only (a resumed run reports the
  // rounds it admitted after the restore).
  std::string latency = "no rounds admitted";
  if (!round_seconds.empty()) {
    const size_t rounds = round_seconds.size();
    const double p50_ms = 1e3 * NearestRank(&round_seconds, 0.50);
    const double p99_ms = 1e3 * NearestRank(&round_seconds, 0.99);
    char buffer[128];
    std::snprintf(buffer, sizeof(buffer),
                  "round latency p50 %.3f ms p99 %.3f ms over %zu rounds",
                  p50_ms, p99_ms, rounds);
    latency = buffer;
  }
  std::printf(
      "streamed %zu blocks (%zu points, window %zu blocks): "
      "%zu resident points in %zu cells, %zu outliers, %zu saturated "
      "points; %s%s\n",
      schedule.num_blocks, schedule.data.size(), schedule.window_blocks,
      detector.resident_points(), detector.resident_cells(),
      detector.outliers().size(), detector.saturated_points(),
      latency.c_str(), oracle ? " [oracle verified]" : "");
  return 0;
}
