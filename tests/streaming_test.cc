// Copyright 2026 The DOD Authors.
//
// Streaming outlier service tests: the shared cell-keying contract, window
// edge cases (entire-cell expiry, verdict flips caused purely by a
// *neighbor's* expiry, duplicate-id rejection, empty feeds), the
// saturation edge of the neighbor-count summaries, the central oracle
// property — after every round the delta-reconstructed outlier set is
// byte-identical to a from-scratch batch pipeline run over the window, for
// every thread count × kernel mode × shuffle mode × window kind, including
// dense-patch schedules that drive saturated points through re-counts —
// and checkpoint/resume reproducing the uninterrupted run's deltas exactly.

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <numbers>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/generators.h"
#include "detection/cell_key.h"
#include "detection/grid.h"
#include "core/pipeline.h"
#include "streaming/streaming_detector.h"

#include "gtest/gtest.h"

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
                      double timestamp = 0.0) {
  StreamBlock block(points.begin()->second.dims());
  for (const auto& [id, p] : points) block.Add(id, p.data());
  block.timestamp = timestamp;
  return block;
}

// ---------------------------------------------------------------------------
// Shared cell keying: the streaming tracker and the batch SparseGrid must
// assign identical cell ids to identical coordinates.

TEST(CellKeyTest, MatchesSparseGridForRandomPointsOriginsAndSides) {
  Rng rng(0xCE11);
  for (int trial = 0; trial < 50; ++trial) {
    const int dims = 1 + static_cast<int>(rng.NextBounded(3));
    Point origin(dims);
    for (int d = 0; d < dims; ++d) origin[d] = rng.NextDouble() * 20.0 - 10.0;
    const double side = 0.25 + rng.NextDouble() * 4.0;
    SparseGrid grid(origin, side);
    for (int i = 0; i < 40; ++i) {
      Point p(dims);
      for (int d = 0; d < dims; ++d) p[d] = rng.NextDouble() * 200.0 - 100.0;
      const CellCoord from_grid = grid.CoordOf(p.data());
      const CellCoord from_helper =
          UniformCellKey(p.data(), dims, origin.data(), side);
      EXPECT_TRUE(from_grid == from_helper);
      EXPECT_EQ(CellCoordHash{}(from_grid), CellCoordHash{}(from_helper));
    }
  }
}

TEST(CellKeyTest, BoundaryPointsBelongToTheUpperCell) {
  // Cell i covers [origin + i*side, origin + (i+1)*side): a point exactly
  // on a cell edge keys into the higher cell.
  const double origin[2] = {0.0, 0.0};
  const double p[2] = {2.0, -2.0};
  const CellCoord coord = UniformCellKey(p, 2, origin, 1.0);
  EXPECT_EQ(coord.c[0], 2);
  EXPECT_EQ(coord.c[1], -2);
}

// ---------------------------------------------------------------------------
// Window edge cases.

TEST(StreamingDetectorTest, EmptyFeedIsNoopDelta) {
  auto created = StreamingDetector::Create(BaseConfig(1.0, 2));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  StreamingDetector& detector = *created.value();

  StreamBlock empty(2);
  auto delta = detector.Feed(empty);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_TRUE(delta.value().newly_flagged.empty());
  EXPECT_TRUE(delta.value().newly_cleared.empty());
  EXPECT_EQ(delta.value().stats.round, 1u);
  EXPECT_EQ(delta.value().stats.resident_points, 0u);
  EXPECT_EQ(detector.rounds(), 1u);
  EXPECT_TRUE(detector.outliers().empty());
}

TEST(StreamingDetectorTest, DuplicateIdsAreRejectedWindowUnchanged) {
  auto created = StreamingDetector::Create(BaseConfig(1.0, 1));
  ASSERT_TRUE(created.ok());
  StreamingDetector& detector = *created.value();

  // Duplicate within one block.
  auto dup_in_block =
      detector.Feed(MakeBlock({{5, {0.0, 0.0}}, {5, {1.0, 1.0}}}));
  EXPECT_EQ(dup_in_block.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(detector.rounds(), 0u);
  EXPECT_EQ(detector.resident_points(), 0u);

  ASSERT_TRUE(detector.Feed(MakeBlock({{5, {0.0, 0.0}}})).ok());

  // Duplicate against a resident point.
  auto dup_resident = detector.Feed(MakeBlock({{5, {2.0, 2.0}}}));
  EXPECT_EQ(dup_resident.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(detector.rounds(), 1u);
  EXPECT_EQ(detector.resident_points(), 1u);
}

TEST(StreamingDetectorTest, RejectsDimensionMismatchAndNonFinite) {
  auto created = StreamingDetector::Create(BaseConfig(1.0, 1));
  ASSERT_TRUE(created.ok());
  StreamingDetector& detector = *created.value();
  ASSERT_TRUE(detector.Feed(MakeBlock({{0, {0.0, 0.0}}})).ok());

  StreamBlock three_d(3);
  const double q[3] = {0.0, 0.0, 0.0};
  three_d.Add(1, q);
  EXPECT_EQ(detector.Feed(three_d).status().code(),
            StatusCode::kInvalidArgument);

  StreamBlock nan_block(2);
  const double bad[2] = {0.0, std::nan("")};
  nan_block.Add(2, bad);
  EXPECT_EQ(detector.Feed(nan_block).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(detector.resident_points(), 1u);
}

TEST(StreamingDetectorTest, EntireCellExpiryClearsItsOutliers) {
  StreamingConfig config = BaseConfig(1.0, 2);
  config.window_blocks = 2;
  auto created = StreamingDetector::Create(config);
  ASSERT_TRUE(created.ok());
  StreamingDetector& detector = *created.value();

  // An isolated point: no neighbors -> outlier; its cell holds only it.
  auto first = detector.Feed(MakeBlock({{10, {50.0, 50.0}}}));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().newly_flagged, std::vector<PointId>{10});
  EXPECT_EQ(detector.resident_cells(), 1u);

  ASSERT_TRUE(detector.Feed(MakeBlock({{11, {-50.0, -50.0}}})).ok());

  // Third block pushes block 1 out of the window: the whole cell of point
  // 10 expires and the id must come back as newly_cleared.
  auto third = detector.Feed(MakeBlock({{12, {70.0, 70.0}}}));
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().stats.expired_points, 1u);
  EXPECT_EQ(third.value().newly_cleared, std::vector<PointId>{10});
  EXPECT_EQ(detector.outliers(), (std::vector<PointId>{11, 12}));
}

TEST(StreamingDetectorTest, NeighborExpiryFlipsUntouchedCellsVerdict) {
  // r=1, k=2. Block 0 puts A and B in cell (0,0); block 1 puts C in cell
  // (1,0) within distance r of both, so C is an inlier. When block 0
  // expires, C's own cell is never touched — only the supporting-ring
  // dirty rule re-detects it — and C must flip to outlier.
  StreamingConfig config = BaseConfig(1.0, 2);
  config.window_blocks = 2;
  auto created = StreamingDetector::Create(config);
  ASSERT_TRUE(created.ok());
  StreamingDetector& detector = *created.value();

  ASSERT_TRUE(
      detector.Feed(MakeBlock({{0, {0.1, 0.1}}, {1, {0.2, 0.1}}})).ok());
  auto second = detector.Feed(MakeBlock({{2, {1.05, 0.1}}}));
  ASSERT_TRUE(second.ok());
  // A, B, C all have >= 2 neighbors within r=1: no outliers yet.
  EXPECT_TRUE(detector.outliers().empty());

  // D is far away; feeding it expires block 0 (A and B).
  auto third = detector.Feed(MakeBlock({{3, {30.0, 30.0}}}));
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().stats.expired_points, 2u);
  // C lost both neighbors without its own cell being touched.
  ASSERT_EQ(detector.outliers(), (std::vector<PointId>{2, 3}));
  EXPECT_EQ(third.value().newly_flagged, (std::vector<PointId>{2, 3}));
}

TEST(StreamingDetectorTest, SaturatedPointWhoseNeighborsExpireFlipsSameRound) {
  // The saturation edge: counting stops at k + 32, so a point carrying a
  // lower bound (not an exact count) that loses neighbors to expiry must
  // re-count — and flip — in the same round the bound drops below k.
  // r=1, k=2 (cap 34), window of 2 blocks.
  StreamingConfig config = BaseConfig(1.0, 2);
  config.window_blocks = 2;
  auto created = StreamingDetector::Create(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  StreamingDetector& detector = *created.value();

  // Round 1: a 34-point cluster on a circle of radius 0.3 — every pair is
  // within r, so each point counts 33 < cap neighbors exactly: inliers.
  StreamBlock cluster(2);
  for (PointId id = 0; id < 34; ++id) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(id) / 34.0;
    const double p[2] = {0.5 + 0.3 * std::cos(angle),
                         0.5 + 0.3 * std::sin(angle)};
    cluster.Add(id, p);
  }
  ASSERT_TRUE(detector.Feed(cluster).ok());
  EXPECT_TRUE(detector.outliers().empty());
  EXPECT_EQ(detector.saturated_points(), 0u);

  // Round 2: P at the circle's center has 34 neighbors. Its first count
  // stops at the cap: P is saturated, an inlier; the cluster's exact
  // counts rise 33 -> 34 through the incremental insert pass.
  auto second = detector.Feed(MakeBlock({{34, {0.5, 0.5}}}));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().stats.full_counted_points, 1u);
  EXPECT_TRUE(second.value().newly_flagged.empty());
  EXPECT_TRUE(detector.outliers().empty());
  EXPECT_EQ(detector.saturated_points(), 1u);

  // Round 3: a far block expires the cluster. P's bound drops 34 - 34 = 0
  // < k: it re-counts to 0 and must flip to outlier in this very round.
  auto third = detector.Feed(MakeBlock({{35, {40.0, 40.0}}}));
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().stats.expired_points, 34u);
  EXPECT_EQ(third.value().stats.recounted_points, 1u);
  EXPECT_EQ(third.value().newly_flagged, (std::vector<PointId>{34, 35}));
  EXPECT_TRUE(third.value().newly_cleared.empty());
  EXPECT_EQ(detector.outliers(), (std::vector<PointId>{34, 35}));
  EXPECT_EQ(detector.saturated_points(), 0u);
}

// ---------------------------------------------------------------------------
// Oracle property: after every round, outliers() must equal a from-scratch
// batch pipeline run over the window contents, across configurations.

struct StreamSchedule {
  Dataset data = Dataset(2);
  size_t block_size = 0;
  size_t window_blocks = 0;

  size_t num_blocks() const {
    return (data.size() + block_size - 1) / block_size;
  }
  size_t begin(size_t b) const { return b * block_size; }
  size_t end(size_t b) const {
    return std::min(data.size(), (b + 1) * block_size);
  }
  size_t first_resident(size_t round) const {
    return round > window_blocks ? round - window_blocks : 0;
  }
};

std::vector<PointId> BatchOracle(const StreamSchedule& schedule, size_t round,
                                 const DodConfig& config) {
  Dataset window(schedule.data.dims());
  std::vector<PointId> window_ids;
  for (size_t b = schedule.first_resident(round); b < round; ++b) {
    for (size_t i = schedule.begin(b); i < schedule.end(b); ++i) {
      window.Append(schedule.data[static_cast<PointId>(i)]);
      window_ids.push_back(static_cast<PointId>(i));
    }
  }
  if (window.empty()) return {};
  DodPipeline pipeline(config);
  const DodResult result = pipeline.RunOrDie(window);
  std::vector<PointId> outliers;
  outliers.reserve(result.outliers.size());
  for (PointId local : result.outliers) outliers.push_back(window_ids[local]);
  return outliers;
}

TEST(StreamingPropertyTest, MatchesBatchPipelineAcrossConfigs) {
  StreamSchedule schedule;
  // Dense enough that the window holds a real mix of inliers and outliers.
  schedule.data = GenerateUniform(1200, DomainForDensity(1200, 2.0), 99);
  schedule.block_size = 100;
  schedule.window_blocks = 5;

  const double radius = 1.5;
  const int k = 4;

  struct Case {
    int threads;
    KernelMode kernels;
    ShuffleMode shuffle;
  };
  const std::vector<Case> cases = {
      {1, KernelMode::kScalar, ShuffleMode::kColumnar},
      {4, KernelMode::kAuto, ShuffleMode::kColumnar},
      {8, KernelMode::kAuto, ShuffleMode::kSorted},
      {4, KernelMode::kScalar, ShuffleMode::kSorted},
  };

  std::vector<std::vector<PointId>> outliers_by_case;
  for (const Case& c : cases) {
    StreamingConfig config = BaseConfig(radius, k);
    config.params.kernels = c.kernels;
    config.num_threads = c.threads;
    config.window_blocks = schedule.window_blocks;

    DodConfig oracle = DodConfig::Dmt(config.params);
    oracle.num_threads = c.threads;
    oracle.shuffle = c.shuffle;
    oracle.seed = config.params.seed;

    auto created = StreamingDetector::Create(config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    StreamingDetector& detector = *created.value();

    std::vector<PointId> running;  // delta-reconstructed outlier set
    for (size_t b = 0; b < schedule.num_blocks(); ++b) {
      StreamBlock block(schedule.data.dims());
      for (size_t i = schedule.begin(b); i < schedule.end(b); ++i) {
        block.Add(static_cast<PointId>(i),
                  schedule.data[static_cast<PointId>(i)]);
      }
      auto fed = detector.Feed(block);
      ASSERT_TRUE(fed.ok()) << fed.status().ToString();

      // Applying the delta to the previous set reconstructs outliers().
      std::vector<PointId> next;
      std::set_difference(running.begin(), running.end(),
                          fed.value().newly_cleared.begin(),
                          fed.value().newly_cleared.end(),
                          std::back_inserter(next));
      std::vector<PointId> merged;
      std::merge(next.begin(), next.end(), fed.value().newly_flagged.begin(),
                 fed.value().newly_flagged.end(), std::back_inserter(merged));
      running = std::move(merged);
      ASSERT_EQ(running, detector.outliers());

      ASSERT_EQ(detector.outliers(), BatchOracle(schedule, b + 1, oracle))
          << "round " << (b + 1) << " threads=" << c.threads;
    }
    outliers_by_case.push_back(detector.outliers());
  }
  // Every configuration converged to the same final verdict set.
  for (size_t i = 1; i < outliers_by_case.size(); ++i) {
    EXPECT_EQ(outliers_by_case[0], outliers_by_case[i]);
  }
}

TEST(StreamingPropertyTest, SpilledOracleBatchYieldsIdenticalVerdicts) {
  // dod_stream_cli's per-round oracle may spill its shuffle. A spilling
  // oracle must agree with the streaming detector verdict for verdict,
  // round by round — spilling is invisible in batch output.
  StreamSchedule schedule;
  schedule.data = GenerateUniform(600, DomainForDensity(600, 2.0), 41);
  schedule.block_size = 100;
  schedule.window_blocks = 3;

  StreamingConfig config = BaseConfig(1.5, 4);
  config.window_blocks = schedule.window_blocks;
  config.num_threads = 4;
  const std::string spill_dir = testing::TempDir() + "/dod_stream_spill_" +
                                std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(spill_dir, ec);

  DodConfig oracle = DodConfig::Dmt(config.params);
  oracle.num_threads = config.num_threads;
  oracle.seed = config.params.seed;
  oracle.spill_dir = spill_dir;
  oracle.spill_threshold_mb = 1;
  DodConfig in_memory_oracle = oracle;
  in_memory_oracle.spill_dir.clear();

  auto created = StreamingDetector::Create(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  StreamingDetector& detector = *created.value();
  for (size_t b = 0; b < schedule.num_blocks(); ++b) {
    StreamBlock block(schedule.data.dims());
    for (size_t i = schedule.begin(b); i < schedule.end(b); ++i) {
      block.Add(static_cast<PointId>(i),
                schedule.data[static_cast<PointId>(i)]);
    }
    ASSERT_TRUE(detector.Feed(block).ok());
    EXPECT_EQ(detector.outliers(), BatchOracle(schedule, b + 1, oracle))
        << "round " << (b + 1);
    EXPECT_EQ(BatchOracle(schedule, b + 1, oracle),
              BatchOracle(schedule, b + 1, in_memory_oracle))
        << "round " << (b + 1);
  }
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

// ---------------------------------------------------------------------------
// Summary maintenance vs the batch oracle: every round's delta-reconstructed
// outlier set must equal a from-scratch batch run over the window — across
// schedules, expiry patterns (count- and time-based windows) and runtime
// configurations. Dense schedules also pin the incrementally kept
// saturated_points() gauge to a recount from each round's snapshot.

// Dense patches: each patch receives two consecutive blocks uniform over a
// side x side square (75 points on 3 x 3 is density ~8 per block), then a
// sparse halo block uniform over a 4 side x 4 side square around it. Points
// saturate at k + 32; their bounds fall below k when the patch's dense
// blocks expire, and halo points inside the patch then re-count to exact
// counts below k and flip.
Dataset DensePatches(size_t num_patches, size_t block_size, double side,
                     uint64_t seed) {
  Dataset data(2);
  Rng rng(seed);
  for (size_t patch = 0; patch < num_patches; ++patch) {
    const double x0 = rng.NextDouble() * 40.0;
    const double y0 = rng.NextDouble() * 40.0;
    for (size_t i = 0; i < 2 * block_size; ++i) {
      const double p[2] = {x0 + rng.NextDouble() * side,
                           y0 + rng.NextDouble() * side};
      data.Append(p);
    }
    for (size_t i = 0; i < block_size; ++i) {
      const double p[2] = {x0 - 1.5 * side + rng.NextDouble() * 4.0 * side,
                           y0 - 1.5 * side + rng.NextDouble() * 4.0 * side};
      data.Append(p);
    }
  }
  return data;
}

TEST(StreamingPropertyTest, SummariesMatchBatchOracleAcrossConfigs) {
  struct Case {
    int threads;
    KernelMode kernels;
  };
  const std::vector<Case> cases = {
      {1, KernelMode::kScalar},
      {4, KernelMode::kAuto},
      {8, KernelMode::kAuto},
      {4, KernelMode::kScalar},
  };
  struct Schedule {
    std::string name;
    StreamSchedule schedule;
    bool dense;
  };
  std::vector<Schedule> schedules;
  for (uint64_t seed : {21u, 77u}) {
    Schedule s{"uniform-" + std::to_string(seed), {}, false};
    s.schedule.data = GenerateUniform(900, DomainForDensity(900, 2.0), seed);
    schedules.push_back(std::move(s));
  }
  {
    // 4 patches x 3 blocks: a 4-block window always straddles a patch
    // boundary, expiring a patch's dense blocks while its halo stays
    // resident.
    Schedule s{"dense-patches", {}, true};
    s.schedule.data = DensePatches(4, 75, 3.0, 0xDE45E);
    schedules.push_back(std::move(s));
  }

  const double radius = 1.5;
  const int k = 4;
  for (Schedule& entry : schedules) {
    StreamSchedule& schedule = entry.schedule;
    schedule.block_size = 75;
    schedule.window_blocks = 4;
    StreamingConfig base = BaseConfig(radius, k);
    DodConfig oracle_config = DodConfig::Dmt(base.params);
    oracle_config.seed = base.params.seed;
    // The batch answer depends only on the window contents, so one oracle
    // run per round serves every configuration below.
    std::vector<std::vector<PointId>> oracle(schedule.num_blocks());
    for (size_t b = 0; b < schedule.num_blocks(); ++b) {
      oracle[b] = BatchOracle(schedule, b + 1, oracle_config);
    }

    for (bool time_window : {false, true}) {
      for (size_t c = 0; c < cases.size(); ++c) {
        SCOPED_TRACE("schedule=" + entry.name +
                     " time_window=" + std::to_string(time_window) +
                     " case=" + std::to_string(c));
        StreamingConfig config = base;
        config.params.kernels = cases[c].kernels;
        config.num_threads = cases[c].threads;
        if (time_window) {
          // Timestamps are round indices: window_seconds == window_blocks
          // keeps exactly the count-based resident set, expiring via the
          // time rule instead.
          config.window_seconds = static_cast<double>(schedule.window_blocks);
        } else {
          config.window_blocks = schedule.window_blocks;
        }
        // Dense schedules commit every round; a detector resumed from the
        // store recounts saturated_points() from the snapshot's per-point
        // bytes, which must equal the live, incrementally kept gauge.
        std::optional<TempDir> dir;
        if (entry.dense) {
          dir.emplace("dod-streaming-gauge");
          config.checkpoint_dir = dir->str();
          config.checkpoint_every = 1;
        }
        StreamingConfig resume_config = config;
        resume_config.resume = true;
        auto created = StreamingDetector::Create(config);
        ASSERT_TRUE(created.ok()) << created.status().ToString();
        StreamingDetector& detector = *created.value();
        const auto expect_restored_gauge = [&]() {
          auto resumed = StreamingDetector::Create(resume_config);
          ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
          ASSERT_EQ(resumed.value()->rounds(), detector.rounds());
          EXPECT_EQ(resumed.value()->saturated_points(),
                    detector.saturated_points())
              << "round " << detector.rounds();
        };

        std::vector<PointId> running;  // delta-reconstructed outlier set
        size_t recounted = 0;
        bool saturated_expired = false;
        for (size_t b = 0; b < schedule.num_blocks(); ++b) {
          StreamBlock block(schedule.data.dims());
          for (size_t i = schedule.begin(b); i < schedule.end(b); ++i) {
            block.Add(static_cast<PointId>(i),
                      schedule.data[static_cast<PointId>(i)]);
          }
          block.timestamp = static_cast<double>(b);
          const size_t saturated_before = detector.saturated_points();
          auto fed = detector.Feed(block);
          ASSERT_TRUE(fed.ok()) << fed.status().ToString();
          recounted += fed.value().stats.recounted_points;
          // The gauge fell in a round that expired points: saturated
          // points left the window or re-counted to exact counts.
          saturated_expired = saturated_expired ||
                              (fed.value().stats.expired_points > 0 &&
                               detector.saturated_points() < saturated_before);
          if (entry.dense) expect_restored_gauge();

          std::vector<PointId> next;
          std::set_difference(running.begin(), running.end(),
                              fed.value().newly_cleared.begin(),
                              fed.value().newly_cleared.end(),
                              std::back_inserter(next));
          running.clear();
          std::merge(next.begin(), next.end(),
                     fed.value().newly_flagged.begin(),
                     fed.value().newly_flagged.end(),
                     std::back_inserter(running));
          ASSERT_EQ(running, oracle[b]) << "round " << (b + 1);
          ASSERT_EQ(detector.outliers(), running) << "round " << (b + 1);
        }
        if (entry.dense) {
          // Dense patches must leave saturated lower bounds behind and
          // drive some of them back below k through expiry: the re-count
          // path is exercised — and checked against the oracle above —
          // not just the exact-count fold.
          EXPECT_GT(detector.saturated_points(), 0u);
          EXPECT_GT(recounted, 0u);
          EXPECT_TRUE(saturated_expired);

          // Expire everything — far singletons push the count window past
          // every schedule block, an empty block far in the future ages
          // the time window out — and the gauge must return to 0.
          for (size_t b = 0; b < schedule.window_blocks; ++b) {
            const double far = 1e4 * static_cast<double>(b + 1);
            StreamBlock block =
                time_window
                    ? StreamBlock(2)
                    : MakeBlock({{static_cast<PointId>(
                                      schedule.data.size() + b),
                                  {far, far}}});
            block.timestamp = 1e3 * static_cast<double>(b + 1);
            ASSERT_TRUE(detector.Feed(block).ok());
          }
          EXPECT_EQ(detector.resident_points(),
                    time_window ? 0u : schedule.window_blocks);
          EXPECT_EQ(detector.saturated_points(), 0u);
          expect_restored_gauge();
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint / resume.

TEST(StreamingCheckpointTest, ResumeReproducesRemainingDeltas) {
  StreamSchedule schedule;
  schedule.data = GenerateUniform(800, DomainForDensity(800, 2.0), 5);
  schedule.block_size = 80;
  schedule.window_blocks = 4;

  auto feed_block = [&](StreamingDetector& detector,
                        size_t b) -> Result<OutlierDelta> {
    StreamBlock block(schedule.data.dims());
    for (size_t i = schedule.begin(b); i < schedule.end(b); ++i) {
      block.Add(static_cast<PointId>(i),
                schedule.data[static_cast<PointId>(i)]);
    }
    return detector.Feed(block);
  };

  StreamingConfig config = BaseConfig(1.5, 4);
  config.window_blocks = schedule.window_blocks;
  config.num_threads = 4;
  config.job_tag = "resume-test";

  // Uninterrupted run: record every round's delta.
  std::vector<std::pair<std::vector<PointId>, std::vector<PointId>>> full;
  {
    auto created = StreamingDetector::Create(config);
    ASSERT_TRUE(created.ok());
    for (size_t b = 0; b < schedule.num_blocks(); ++b) {
      auto fed = feed_block(*created.value(), b);
      ASSERT_TRUE(fed.ok());
      full.emplace_back(fed.value().newly_flagged,
                        fed.value().newly_cleared);
    }
  }

  // Checkpointed run stops after round `stop`; a resumed service (different
  // thread count — resume does not depend on it) replays the rest.
  const size_t stop = 6;
  TempDir dir("dod-streaming-ck");
  config.checkpoint_dir = dir.str();
  {
    auto created = StreamingDetector::Create(config);
    ASSERT_TRUE(created.ok());
    for (size_t b = 0; b < stop; ++b) {
      auto fed = feed_block(*created.value(), b);
      ASSERT_TRUE(fed.ok());
      ASSERT_EQ(fed.value().newly_flagged, full[b].first);
    }
    // No explicit shutdown: the committed checkpoint is all that survives.
  }
  config.resume = true;
  config.num_threads = 1;
  auto resumed = StreamingDetector::Create(config);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value()->rounds(), stop);
  for (size_t b = stop; b < schedule.num_blocks(); ++b) {
    auto fed = feed_block(*resumed.value(), b);
    ASSERT_TRUE(fed.ok());
    EXPECT_EQ(fed.value().newly_flagged, full[b].first) << "round " << b + 1;
    EXPECT_EQ(fed.value().newly_cleared, full[b].second) << "round " << b + 1;
  }
}

TEST(StreamingCheckpointTest, ResumeRefusesMismatchedConfig) {
  TempDir dir("dod-streaming-key");
  StreamingConfig config = BaseConfig(1.0, 2);
  config.window_blocks = 2;
  config.checkpoint_dir = dir.str();
  {
    auto created = StreamingDetector::Create(config);
    ASSERT_TRUE(created.ok());
    ASSERT_TRUE(created.value()->Feed(MakeBlock({{0, {0.0, 0.0}}})).ok());
  }
  config.resume = true;
  config.params.radius = 2.0;  // different outlier definition
  auto resumed = StreamingDetector::Create(config);
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(StreamingCheckpointTest, CheckpointWithoutDirIsFailedPrecondition) {
  auto created = StreamingDetector::Create(BaseConfig(1.0, 2));
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created.value()->Checkpoint().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace dod
