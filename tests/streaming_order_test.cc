// Copyright 2026 The DOD Authors.
//
// Out-of-order streaming conformance suite. The correctness contract under
// test: with a bounded-lateness watermark policy, *any* arrival permutation
// within lateness L admits the canonical (timestamp, arrival) block
// sequence, so the admitted-order delta stream — and the final flagged set
// — is byte-identical to in-order delivery. The headline is a seeded
// permutation-fuzz harness (>= 200 cases across threads x kernels,
// cross-checked against the batch pipeline oracle); around it sit the
// admission edge cases (boundary timestamps, duplicate timestamps,
// late-block rejection), kill->resume with a non-empty reorder buffer, the
// checkpoint version matrix (every version but the current one is refused;
// the current one round-trips), and the dod_stream_cli replay/oracle paths
// through the real binary.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/random.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "durability/checkpoint.h"
#include "durability/payload.h"
#include "streaming/streaming_detector.h"

#ifndef DOD_STREAM_CLI_PATH
#define DOD_STREAM_CLI_PATH "build/tools/dod_stream_cli"
#endif

namespace dod {
namespace {

namespace fs = std::filesystem;

StreamingConfig BaseConfig(double radius, int k) {
  StreamingConfig config;
  config.params.radius = radius;
  config.params.min_neighbors = k;
  config.params.seed = 7;
  return config;
}

StreamBlock MakeBlock(std::initializer_list<std::pair<PointId, Point>> points,
                      double timestamp) {
  StreamBlock block(points.begin()->second.dims());
  for (const auto& [id, p] : points) block.Add(id, p.data());
  block.timestamp = timestamp;
  return block;
}

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              (name + "-" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

// The comparable essence of one admitted round: verdict flips plus the
// window-shape stats that must not depend on arrival order. (Timing
// legitimately differs across runs and is excluded.)
struct RoundRecord {
  uint64_t round = 0;
  std::vector<PointId> flagged;
  std::vector<PointId> cleared;
  size_t appended = 0;
  size_t expired = 0;
  size_t resident = 0;

  bool operator==(const RoundRecord& o) const {
    return round == o.round && flagged == o.flagged && cleared == o.cleared &&
           appended == o.appended && expired == o.expired &&
           resident == o.resident;
  }
};

RoundRecord Record(const OutlierDelta& delta) {
  RoundRecord r;
  r.round = delta.stats.round;
  r.flagged = delta.newly_flagged;
  r.cleared = delta.newly_cleared;
  r.appended = delta.stats.appended_points;
  r.expired = delta.stats.expired_points;
  r.resident = delta.stats.resident_points;
  return r;
}

std::string Describe(const RoundRecord& r) {
  std::ostringstream out;
  out << "round=" << r.round << " appended=" << r.appended
      << " expired=" << r.expired << " resident=" << r.resident
      << " flagged=[";
  for (PointId id : r.flagged) out << id << ",";
  out << "] cleared=[";
  for (PointId id : r.cleared) out << id << ",";
  out << "]";
  return out.str();
}

// A replay schedule: block b carries timestamp b, so canonical admission
// order is simply block order.
struct OrderSchedule {
  Dataset data = Dataset(2);
  size_t block_size = 15;

  size_t num_blocks() const { return data.size() / block_size; }
  StreamBlock Block(size_t b) const {
    StreamBlock block(data.dims());
    for (size_t i = b * block_size; i < (b + 1) * block_size; ++i) {
      block.Add(static_cast<PointId>(i), data[static_cast<PointId>(i)]);
    }
    block.timestamp = static_cast<double>(b);
    return block;
  }
};

// From-scratch batch verdicts over the schedule's final window contents:
// its last window_blocks blocks.
std::vector<PointId> FinalWindowOracle(const OrderSchedule& schedule,
                                       const StreamingConfig& config) {
  Dataset window(schedule.data.dims());
  std::vector<PointId> window_ids;
  for (size_t b = 0; b < schedule.num_blocks(); ++b) {
    if (schedule.num_blocks() - b > config.window_blocks) continue;
    for (size_t i = b * schedule.block_size;
         i < (b + 1) * schedule.block_size; ++i) {
      window.Append(schedule.data[static_cast<PointId>(i)]);
      window_ids.push_back(static_cast<PointId>(i));
    }
  }
  if (window.empty()) return {};
  DodConfig oracle = DodConfig::Dmt(config.params);
  oracle.seed = config.params.seed;
  DodPipeline pipeline(oracle);
  const DodResult result = pipeline.RunOrDie(window);
  std::vector<PointId> outliers;
  outliers.reserve(result.outliers.size());
  for (PointId local : result.outliers) outliers.push_back(window_ids[local]);
  return outliers;
}

// ---------------------------------------------------------------------------
// The permutation-fuzz property.

TEST(StreamingOrderFuzzTest, PermutationsWithinLatenessMatchInOrder) {
  const double kLateness = 5.0;
  OrderSchedule schedule;
  schedule.data = GenerateUniform(360, DomainForDensity(360, 2.0), 4242);
  ASSERT_EQ(schedule.num_blocks(), 24u);

  struct Case {
    int threads;
    KernelMode kernels;
  };
  std::vector<Case> cases;
  for (int threads : {1, 4}) {
    for (KernelMode kernels : {KernelMode::kScalar, KernelMode::kAuto}) {
      cases.push_back({threads, kernels});
    }
  }

  int total_cases = 0;
  for (size_t c = 0; c < cases.size(); ++c) {
    StreamingConfig config = BaseConfig(1.5, 4);
    config.params.kernels = cases[c].kernels;
    config.num_threads = cases[c].threads;
    config.window_blocks = 8;

    // In-order reference: watermark disabled, canonical delivery order.
    std::vector<RoundRecord> reference;
    std::vector<PointId> final_outliers;
    {
      auto created = StreamingDetector::Create(config);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      for (size_t b = 0; b < schedule.num_blocks(); ++b) {
        auto fed = created.value()->Feed(schedule.Block(b));
        ASSERT_TRUE(fed.ok()) << fed.status().ToString();
        reference.push_back(Record(fed.value()));
      }
      final_outliers = created.value()->outliers();
    }
    // The reference itself must agree with a from-scratch batch run over
    // the final window (the streaming suite proves every round; the fuzz
    // anchors its reference once per configuration).
    ASSERT_EQ(final_outliers, FinalWindowOracle(schedule, config))
        << "config " << c;

    StreamingConfig shuffled_config = config;
    shuffled_config.watermark.enabled = true;
    shuffled_config.watermark.lateness = kLateness;

    for (uint64_t seed = 1; seed <= 50; ++seed) {
      ++total_cases;
      SCOPED_TRACE("config=" + std::to_string(c) +
                   " seed=" + std::to_string(seed));

      // Jittered arrival order: block b's arrival priority is b + U[0,L),
      // so no block ever arrives more than L behind a block it precedes —
      // every permutation the shuffle can produce stays admissible.
      Rng rng(seed * 0x9E3779B9ULL + c);
      std::vector<std::pair<double, size_t>> order;
      order.reserve(schedule.num_blocks());
      for (size_t b = 0; b < schedule.num_blocks(); ++b) {
        order.emplace_back(static_cast<double>(b) +
                               rng.NextDouble() * kLateness,
                           b);
      }
      std::stable_sort(order.begin(), order.end());

      auto created = StreamingDetector::Create(shuffled_config);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      StreamingDetector& detector = *created.value();

      std::vector<RoundRecord> got;
      for (const auto& [priority, b] : order) {
        auto ingested = detector.Ingest(schedule.Block(b));
        ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
        for (const OutlierDelta& delta : ingested.value().admitted) {
          got.push_back(Record(delta));
        }
      }
      auto flushed = detector.Flush();
      ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
      for (const OutlierDelta& delta : flushed.value().admitted) {
        got.push_back(Record(delta));
      }

      EXPECT_EQ(detector.late_dropped(), 0u);
      EXPECT_EQ(detector.arrivals(), schedule.num_blocks());
      EXPECT_EQ(detector.buffered_blocks(), 0u);
      ASSERT_EQ(got.size(), reference.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(got[i] == reference[i])
            << "admitted round " << i + 1 << "\n  got:  "
            << Describe(got[i]) << "\n  want: " << Describe(reference[i]);
      }
      ASSERT_EQ(detector.outliers(), final_outliers);
    }
  }
  // The satellite contract: at least 200 seeded permutation cases.
  EXPECT_GE(total_cases, 200);
}

// ---------------------------------------------------------------------------
// Admission edge cases.

TEST(StreamingOrderTest, FeedIsFailedPreconditionInWatermarkMode) {
  StreamingConfig config = BaseConfig(1.0, 2);
  config.watermark.enabled = true;
  config.watermark.lateness = 2.0;
  auto created = StreamingDetector::Create(config);
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(
      created.value()->Feed(MakeBlock({{0, {0.0, 0.0}}}, 0.0)).status().code(),
      StatusCode::kFailedPrecondition);
}

TEST(StreamingOrderTest, IngestWithoutPolicyAdmitsImmediately) {
  auto created = StreamingDetector::Create(BaseConfig(1.0, 2));
  ASSERT_TRUE(created.ok());
  auto ingested = created.value()->Ingest(MakeBlock({{0, {0.0, 0.0}}}, 0.0));
  ASSERT_TRUE(ingested.ok());
  EXPECT_EQ(ingested.value().admitted.size(), 1u);
  EXPECT_EQ(ingested.value().buffered, 0u);
  EXPECT_EQ(created.value()->rounds(), 1u);
}

TEST(StreamingOrderTest, RejectsNonFiniteOrNegativeWatermarkPolicy) {
  StreamingConfig config = BaseConfig(1.0, 2);
  config.watermark.enabled = true;
  config.watermark.lateness = -1.0;
  EXPECT_EQ(StreamingDetector::Create(config).status().code(),
            StatusCode::kInvalidArgument);
  config.watermark.lateness = std::nan("");
  EXPECT_EQ(StreamingDetector::Create(config).status().code(),
            StatusCode::kInvalidArgument);
  config.watermark.lateness = std::numeric_limits<double>::infinity();
  EXPECT_EQ(StreamingDetector::Create(config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StreamingOrderTest, BlockExactlyAtWatermarkIsBufferedNotLate) {
  StreamingConfig config = BaseConfig(1.0, 2);
  config.watermark.enabled = true;
  config.watermark.lateness = 5.0;
  auto created = StreamingDetector::Create(config);
  ASSERT_TRUE(created.ok());
  StreamingDetector& detector = *created.value();

  auto first = detector.Ingest(MakeBlock({{0, {0.0, 0.0}}}, 10.0));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value().has_watermark);
  EXPECT_EQ(first.value().watermark, 5.0);
  EXPECT_EQ(first.value().buffered, 1u);
  EXPECT_TRUE(first.value().admitted.empty());

  // ts == max_seen - L sits exactly on the watermark: admissible (the
  // canonical order can still absorb it), so it buffers rather than drops.
  auto boundary = detector.Ingest(MakeBlock({{1, {50.0, 50.0}}}, 5.0));
  ASSERT_TRUE(boundary.ok());
  EXPECT_EQ(boundary.value().buffered, 2u);
  EXPECT_EQ(detector.late_dropped(), 0u);

  // Strictly behind the watermark: structured kOutOfRange, counted, and
  // the window/buffer unchanged.
  auto late = detector.Ingest(MakeBlock({{2, {70.0, 70.0}}}, 4.9));
  EXPECT_EQ(late.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(detector.late_dropped(), 1u);
  EXPECT_EQ(detector.buffered_blocks(), 2u);
  EXPECT_EQ(detector.arrivals(), 2u);
  EXPECT_EQ(detector.rounds(), 0u);

  // Drain: canonical order is ts 5 first, then ts 10.
  auto flushed = detector.Flush();
  ASSERT_TRUE(flushed.ok());
  ASSERT_EQ(flushed.value().admitted.size(), 2u);
  EXPECT_EQ(flushed.value().admitted[0].newly_flagged,
            (std::vector<PointId>{1}));
  EXPECT_EQ(flushed.value().admitted[1].newly_flagged,
            (std::vector<PointId>{0}));
  EXPECT_EQ(detector.rounds(), 2u);
}

TEST(StreamingOrderTest, DuplicateTimestampsAdmitInArrivalOrder) {
  StreamingConfig config = BaseConfig(1.0, 2);
  config.watermark.enabled = true;
  config.watermark.lateness = 5.0;
  auto created = StreamingDetector::Create(config);
  ASSERT_TRUE(created.ok());
  StreamingDetector& detector = *created.value();

  // Two blocks share ts 3; the canonical (timestamp, arrival) order admits
  // the first arrival first.
  ASSERT_TRUE(detector.Ingest(MakeBlock({{11, {40.0, 40.0}}}, 3.0)).ok());
  ASSERT_TRUE(detector.Ingest(MakeBlock({{10, {-40.0, -40.0}}}, 3.0)).ok());
  EXPECT_EQ(detector.buffered_blocks(), 2u);

  // Advance the clock past 3 + L so the duplicate pair drains.
  StreamBlock tick(2);
  tick.timestamp = 9.0;
  auto drained = detector.Ingest(tick);
  ASSERT_TRUE(drained.ok());
  EXPECT_TRUE(drained.value().has_watermark);
  EXPECT_EQ(drained.value().watermark, 4.0);
  ASSERT_EQ(drained.value().admitted.size(), 2u);
  EXPECT_EQ(drained.value().admitted[0].newly_flagged,
            (std::vector<PointId>{11}));
  EXPECT_EQ(drained.value().admitted[1].newly_flagged,
            (std::vector<PointId>{10}));
}

// ---------------------------------------------------------------------------
// Kill -> resume with a non-empty reorder buffer.

TEST(StreamingOrderCheckpointTest, ResumeWithNonEmptyReorderBuffer) {
  const double kLateness = 6.0;
  OrderSchedule schedule;
  schedule.data = GenerateUniform(300, DomainForDensity(300, 2.0), 17);
  ASSERT_EQ(schedule.num_blocks(), 20u);

  StreamingConfig config = BaseConfig(1.5, 4);
  config.window_blocks = 4;
  config.watermark.enabled = true;
  config.watermark.lateness = kLateness;
  config.job_tag = "reorder-resume";

  // One fixed jittered arrival order for both runs.
  Rng rng(123);
  std::vector<std::pair<double, size_t>> order;
  for (size_t b = 0; b < schedule.num_blocks(); ++b) {
    order.emplace_back(static_cast<double>(b) + rng.NextDouble() * kLateness,
                       b);
  }
  std::stable_sort(order.begin(), order.end());

  // Reference: the uninterrupted watermark run over that arrival order.
  std::vector<RoundRecord> reference;
  std::vector<PointId> final_outliers;
  {
    auto created = StreamingDetector::Create(config);
    ASSERT_TRUE(created.ok());
    for (const auto& [priority, b] : order) {
      auto ingested = created.value()->Ingest(schedule.Block(b));
      ASSERT_TRUE(ingested.ok());
      for (const OutlierDelta& delta : ingested.value().admitted) {
        reference.push_back(Record(delta));
      }
    }
    auto flushed = created.value()->Flush();
    ASSERT_TRUE(flushed.ok());
    for (const OutlierDelta& delta : flushed.value().admitted) {
      reference.push_back(Record(delta));
    }
    final_outliers = created.value()->outliers();
  }

  // Interrupted run: stop mid-stream with blocks still parked in the
  // reorder buffer, drop the service (simulated kill: the committed
  // checkpoint is all that survives).
  const size_t stop = 12;
  TempDir dir("dod-streaming-reorder-resume");
  config.checkpoint_dir = dir.str();
  std::vector<RoundRecord> got;
  size_t buffered_at_kill = 0;
  uint64_t rounds_at_kill = 0;
  {
    auto created = StreamingDetector::Create(config);
    ASSERT_TRUE(created.ok());
    for (size_t a = 0; a < stop; ++a) {
      auto ingested = created.value()->Ingest(schedule.Block(order[a].second));
      ASSERT_TRUE(ingested.ok());
      for (const OutlierDelta& delta : ingested.value().admitted) {
        got.push_back(Record(delta));
      }
    }
    buffered_at_kill = created.value()->buffered_blocks();
    rounds_at_kill = created.value()->rounds();
    ASSERT_GT(buffered_at_kill, 0u) << "schedule must park blocks mid-run";
  }

  config.resume = true;
  auto resumed = StreamingDetector::Create(config);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  StreamingDetector& detector = *resumed.value();
  EXPECT_EQ(detector.arrivals(), stop);
  EXPECT_EQ(detector.rounds(), rounds_at_kill);
  EXPECT_EQ(detector.buffered_blocks(), buffered_at_kill);

  for (size_t a = stop; a < order.size(); ++a) {
    auto ingested = detector.Ingest(schedule.Block(order[a].second));
    ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
    for (const OutlierDelta& delta : ingested.value().admitted) {
      got.push_back(Record(delta));
    }
  }
  auto flushed = detector.Flush();
  ASSERT_TRUE(flushed.ok());
  for (const OutlierDelta& delta : flushed.value().admitted) {
    got.push_back(Record(delta));
  }

  ASSERT_EQ(got.size(), reference.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i] == reference[i])
        << "admitted round " << i + 1 << "\n  got:  " << Describe(got[i])
        << "\n  want: " << Describe(reference[i]);
  }
  EXPECT_EQ(detector.outliers(), final_outliers);
}

TEST(StreamingOrderCheckpointTest, SaturatedGaugeMatchesRestoredSnapshots) {
  // The incrementally kept saturated_points() under a watermark policy and
  // a shuffled arrival order: after every arrival (checkpoint_every = 1) a
  // detector resumed from the store recounts the gauge from the snapshot's
  // per-point bytes and must agree with the live one. Dense patches (two
  // dense blocks, then a sparse halo) make points saturate and, once the
  // dense blocks expire, re-count.
  const double kLateness = 5.0;
  const size_t kPatches = 6;
  OrderSchedule schedule;
  schedule.block_size = 30;
  Rng data_rng(0x5A7);
  for (size_t patch = 0; patch < kPatches; ++patch) {
    const double x0 = data_rng.NextDouble() * 40.0;
    const double y0 = data_rng.NextDouble() * 40.0;
    for (size_t i = 0; i < 3 * schedule.block_size; ++i) {
      const double extent = i < 2 * schedule.block_size ? 2.0 : 8.0;
      const double offset = i < 2 * schedule.block_size ? 0.0 : -3.0;
      const double p[2] = {x0 + offset + data_rng.NextDouble() * extent,
                           y0 + offset + data_rng.NextDouble() * extent};
      schedule.data.Append(p);
    }
  }
  ASSERT_EQ(schedule.num_blocks(), 3 * kPatches);

  TempDir dir("dod-streaming-reorder-gauge");
  StreamingConfig config = BaseConfig(1.5, 4);
  config.window_blocks = 6;
  config.watermark.enabled = true;
  config.watermark.lateness = kLateness;
  config.checkpoint_dir = dir.str();
  config.checkpoint_every = 1;
  config.job_tag = "reorder-gauge";
  StreamingConfig resume_config = config;
  resume_config.resume = true;

  auto created = StreamingDetector::Create(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  StreamingDetector& detector = *created.value();
  const auto expect_restored_gauge = [&](const std::string& when) {
    auto resumed = StreamingDetector::Create(resume_config);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ASSERT_EQ(resumed.value()->arrivals(), detector.arrivals()) << when;
    ASSERT_EQ(resumed.value()->rounds(), detector.rounds()) << when;
    EXPECT_EQ(resumed.value()->saturated_points(),
              detector.saturated_points())
        << when;
  };

  Rng rng(99);
  std::vector<std::pair<double, size_t>> order;
  for (size_t b = 0; b < schedule.num_blocks(); ++b) {
    order.emplace_back(static_cast<double>(b) + rng.NextDouble() * kLateness,
                       b);
  }
  std::stable_sort(order.begin(), order.end());

  size_t peak = 0;
  size_t recounted = 0;
  const auto absorb = [&](const IngestResult& result) {
    for (const OutlierDelta& delta : result.admitted) {
      recounted += delta.stats.recounted_points;
    }
    peak = std::max(peak, detector.saturated_points());
  };
  for (const auto& [priority, b] : order) {
    auto ingested = detector.Ingest(schedule.Block(b));
    ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
    absorb(ingested.value());
    expect_restored_gauge("after block " + std::to_string(b));
  }
  // Far singletons after the schedule push every schedule block out of
  // the count window once the flush admits them.
  for (size_t i = 0; i < config.window_blocks; ++i) {
    const double far = 1e4 * static_cast<double>(i + 1);
    const PointId id = static_cast<PointId>(schedule.data.size() + i);
    auto ingested = detector.Ingest(
        MakeBlock({{id, {far, far}}}, 1000.0 + static_cast<double>(i)));
    ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
    absorb(ingested.value());
  }
  auto flushed = detector.Flush();
  ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
  absorb(flushed.value());
  EXPECT_EQ(detector.rounds(), schedule.num_blocks() + config.window_blocks);
  EXPECT_GT(peak, 0u);
  EXPECT_GT(recounted, 0u);
  EXPECT_EQ(detector.resident_points(), config.window_blocks);
  EXPECT_EQ(detector.saturated_points(), 0u);
  expect_restored_gauge("after the final flush");
}

// ---------------------------------------------------------------------------
// Checkpoint version-compatibility matrix. The stores are written out of
// band through CheckpointStore + StreamingDetector::JobKeyFor, exactly the
// bytes an older (or newer) writer would have produced.

void CommitStreamSnapshot(const std::string& dir, const std::string& job_key,
                          uint64_t task_index, const std::string& payload) {
  auto store = CheckpointStore::Open(dir, job_key, false);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(store.value()
                  ->CommitTask("stream", static_cast<int>(task_index), payload)
                  .ok());
  PayloadWriter latest;
  latest.U64(task_index);
  ASSERT_TRUE(store.value()->CommitTask("latest", 0, latest.str()).ok());
}

TEST(StreamingVersionMatrixTest, FutureSnapshotVersionIsFailedPrecondition) {
  // The reader knows one layout: any other snapshot version — older or
  // newer — is refused with kFailedPrecondition instead of misparsed.
  for (uint32_t version : {0u, 1u, 2u, 3u, 4u, 6u, 999u}) {
    TempDir dir("dod-streaming-vskew-" + std::to_string(version));
    StreamingConfig config = BaseConfig(1.0, 2);
    config.checkpoint_dir = dir.str();
    PayloadWriter w;
    w.U32(version);
    w.U64(1);  // round; everything past the version is junk to the check
    CommitStreamSnapshot(dir.str(), StreamingDetector::JobKeyFor(config), 1,
                         w.str());
    config.resume = true;
    auto resumed = StreamingDetector::Create(config);
    ASSERT_FALSE(resumed.ok()) << "version " << version;
    EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(resumed.status().ToString().find("version skew"),
              std::string::npos);
  }
}

// A valid v5 snapshot of an empty window that has completed `rounds`
// in-order rounds (arrivals == rounds, no blocks, no reorder buffer).
std::string EmptyWindowSnapshot(uint64_t rounds) {
  PayloadWriter w;
  w.U32(5);       // version
  w.U64(rounds);  // round
  w.U32(0);       // dims (no block admitted yet)
  w.U64(0);       // resident blocks
  w.U64(0);       // flagged ids
  w.U64(rounds);  // arrivals
  w.U64(0);       // late dropped
  w.U8(0);        // saw an arrival
  w.F64(0.0);     // clock
  w.U64(0);       // next arrival sequence
  w.U64(0);       // buffered blocks
  return w.str();
}

TEST(StreamingVersionMatrixTest, CheckpointIndexPastStoreLimitIsOutOfRange) {
  // The manifest reader refuses task indexes above kMaxTaskIndex, so a
  // commit at round kMaxTaskIndex + 1 could never be read back: resume
  // would silently restore the older snapshot. The commit must fail
  // loudly with kOutOfRange instead, and the store keep its last readable
  // snapshot.
  const uint64_t limit = CheckpointStore::kMaxTaskIndex;
  TempDir dir("dod-streaming-index-limit");
  StreamingConfig config = BaseConfig(1.0, 2);
  config.checkpoint_dir = dir.str();
  config.job_tag = "index-limit";
  CommitStreamSnapshot(dir.str(), StreamingDetector::JobKeyFor(config), limit,
                       EmptyWindowSnapshot(limit));
  config.resume = true;
  {
    auto resumed = StreamingDetector::Create(config);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ASSERT_EQ(resumed.value()->rounds(), limit);
    auto fed = resumed.value()->Feed(MakeBlock({{0, {0.0, 0.0}}}, 0.0));
    ASSERT_FALSE(fed.ok());
    EXPECT_EQ(fed.status().code(), StatusCode::kOutOfRange);
    EXPECT_NE(fed.status().ToString().find("checkpoint index"),
              std::string::npos);
    EXPECT_EQ(resumed.value()->Checkpoint().code(), StatusCode::kOutOfRange);
  }
  // Nothing unreadable was committed: the store still resumes at the limit.
  auto again = StreamingDetector::Create(config);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value()->rounds(), limit);
  EXPECT_EQ(again.value()->resident_points(), 0u);

  // A latest pointer past the limit is refused, not truncated onto
  // another snapshot's index (2^32 would land on snapshot 0).
  TempDir hostile("dod-streaming-index-hostile");
  config.resume = false;
  config.checkpoint_dir = hostile.str();
  {
    auto store = CheckpointStore::Open(
        hostile.str(), StreamingDetector::JobKeyFor(config), false);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(
        store.value()->CommitTask("stream", 0, EmptyWindowSnapshot(0)).ok());
    PayloadWriter latest;
    latest.U64(uint64_t{1} << 32);
    ASSERT_TRUE(store.value()->CommitTask("latest", 0, latest.str()).ok());
  }
  config.resume = true;
  auto refused = StreamingDetector::Create(config);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kIoError);
}

TEST(StreamingVersionMatrixTest, V5RoundTripRestoresReorderState) {
  // Sanity anchor for the matrix: a live v5 snapshot (watermark mode,
  // non-empty buffer) restores byte-identically — buffer, clock, late
  // counter and all. (The hostile-record fuzz lives in
  // checkpoint_fuzz_test.cc.)
  TempDir dir("dod-streaming-v5-roundtrip");
  StreamingConfig config = BaseConfig(1.0, 2);
  config.checkpoint_dir = dir.str();
  config.watermark.enabled = true;
  config.watermark.lateness = 4.0;
  config.job_tag = "v5-roundtrip";
  {
    auto created = StreamingDetector::Create(config);
    ASSERT_TRUE(created.ok());
    ASSERT_TRUE(created.value()->Ingest(MakeBlock({{0, {0.0, 0.0}}}, 10.0)).ok());
    ASSERT_TRUE(created.value()->Ingest(MakeBlock({{1, {9.0, 9.0}}}, 8.0)).ok());
    EXPECT_EQ(created.value()
                  ->Ingest(MakeBlock({{2, {5.0, 5.0}}}, 1.0))
                  .status()
                  .code(),
              StatusCode::kOutOfRange);
    EXPECT_EQ(created.value()->buffered_blocks(), 2u);
  }
  config.resume = true;
  auto resumed = StreamingDetector::Create(config);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value()->buffered_blocks(), 2u);
  EXPECT_EQ(resumed.value()->arrivals(), 2u);
  EXPECT_EQ(resumed.value()->late_dropped(), 1u);
  EXPECT_EQ(resumed.value()->rounds(), 0u);
  auto flushed = resumed.value()->Flush();
  ASSERT_TRUE(flushed.ok());
  ASSERT_EQ(flushed.value().admitted.size(), 2u);
  EXPECT_EQ(flushed.value().admitted[0].newly_flagged,
            (std::vector<PointId>{1}));
  EXPECT_EQ(flushed.value().admitted[1].newly_flagged,
            (std::vector<PointId>{0}));
}

// ---------------------------------------------------------------------------
// dod_stream_cli replay paths through the real binary.

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult RunStreamCli(const std::string& args) {
  const std::string command =
      std::string(DOD_STREAM_CLI_PATH) + " " + args + " 2>&1";
  CommandResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 512> buffer;
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WEXITSTATUS(status);
  return result;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(StreamCliOrderTest, ShuffledReplayDeltaLogMatchesInOrder) {
  const std::string base =
      "--generate uniform --n 1200 --block_size 100 --window 4 "
      "--radius 1.5 --k 4 --threads 2 --seed 21";
  const std::string in_order_log = testing::TempDir() + "/order_cli_a.log";
  const std::string shuffled_log = testing::TempDir() + "/order_cli_b.log";

  const CommandResult in_order =
      RunStreamCli(base + " --delta_out " + in_order_log);
  ASSERT_EQ(in_order.exit_code, 0) << in_order.output;
  const CommandResult shuffled = RunStreamCli(
      base + " --lateness 4 --reorder_seed 7 --delta_out " + shuffled_log);
  ASSERT_EQ(shuffled.exit_code, 0) << shuffled.output;

  const std::string want = ReadFile(in_order_log);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(ReadFile(shuffled_log), want);
  std::remove(in_order_log.c_str());
  std::remove(shuffled_log.c_str());
}

TEST(StreamCliOrderTest, OracleSkipEmptyVerdictsStillMatch) {
  const std::string base =
      "--generate uniform --n 900 --block_size 90 --window 4 "
      "--radius 1.5 --k 4 --seed 33 --oracle --lateness 3 --reorder_seed 11";
  const std::string full_log = testing::TempDir() + "/order_cli_full.log";
  const std::string skip_log = testing::TempDir() + "/order_cli_skip.log";

  const CommandResult full =
      RunStreamCli(base + " --delta_out " + full_log);
  ASSERT_EQ(full.exit_code, 0) << full.output;
  const CommandResult skip = RunStreamCli(base + " --oracle_skip_empty " +
                                          "--delta_out " + skip_log);
  ASSERT_EQ(skip.exit_code, 0) << skip.output;

  // Skipping empty-delta rounds changes only how often the batch oracle
  // re-runs — never the verdicts or the delta log.
  const std::string want = ReadFile(full_log);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(ReadFile(skip_log), want);
  std::remove(full_log.c_str());
  std::remove(skip_log.c_str());
}

TEST(StreamCliOrderTest, FlagValidationRejectsOrphans) {
  // --oracle_skip_empty without --oracle, and --reorder_seed without
  // --lateness, are configuration errors, not silent no-ops.
  EXPECT_EQ(RunStreamCli("--n 100 --oracle_skip_empty").exit_code, 1);
  EXPECT_EQ(RunStreamCli("--n 100 --reorder_seed 3").exit_code, 1);
}

}  // namespace
}  // namespace dod
