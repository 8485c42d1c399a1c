// Copyright 2026 The DOD Authors.
//
// Streaming outlier service tests: the shared cell-keying contract, window
// edge cases (entire-cell expiry, verdict flips caused purely by a
// *neighbor's* expiry, duplicate-id and out-of-key-range rejection, empty
// feeds), the saturation edge of the neighbor-count summaries, the central
// oracle property — after every round the delta-reconstructed outlier set
// is byte-identical to a from-scratch batch pipeline run over the window,
// for every thread count × kernel mode × shuffle mode, including
// dense-patch schedules that drive saturated points through re-counts —
// and checkpoint/resume reproducing the uninterrupted run's deltas exactly.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <numbers>
#include <optional>
#include <set>
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

StreamBlock MakeBlock(std::initializer_list<std::pair<PointId, Point>> points) {
  StreamBlock block(points.begin()->second.dims());
  for (const auto& [id, p] : points) block.Add(id, p.data());
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
    Dataset points(dims);
    for (int i = 0; i < 40; ++i) {
      Point p(dims);
      for (int d = 0; d < dims; ++d) p[d] = rng.NextDouble() * 200.0 - 100.0;
      points.Append(p);
    }
    const SparseGrid grid(origin, side, static_cast<uint32_t>(points.size()),
                          [&](uint32_t i) { return points[i]; });
    ASSERT_TRUE(grid.fits());
    for (uint32_t i = 0; i < points.size(); ++i) {
      const CellCoord from_grid = grid.CoordOf(points[i]);
      const CellCoord from_helper =
          UniformCellKey(points[i], dims, origin.data(), side);
      EXPECT_TRUE(from_grid == from_helper);
      EXPECT_EQ(CellCoordHash{}(from_grid), CellCoordHash{}(from_helper));
      // The built grid filed the point under that same key.
      const SparseGrid::Cell* cell = grid.Find(from_helper);
      ASSERT_NE(cell, nullptr);
      EXPECT_TRUE(std::binary_search(cell->points.begin(),
                                     cell->points.end(), i));
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

TEST(StreamingDetectorTest, BlockBeyondTheKeyRangeIsRefusedWindowUnchanged) {
  // With side 1, a coordinate of 2e9 is past the 2^30 cells an int32 key
  // represents exactly. The whole block is refused before admission, so
  // the rounds, the window and the deltas are those of a detector that
  // never saw it, and the next valid block is admitted normally.
  const StreamBlock first = MakeBlock({{0, {0.0, 0.0}}, {1, {0.5, 0.0}}});
  const StreamBlock far = MakeBlock({{2, {0.2, 0.2}}, {3, {2e9, 0.0}}});
  const StreamBlock next = MakeBlock({{2, {0.2, 0.2}}, {4, {5.0, 5.0}}});
  auto created = StreamingDetector::Create(BaseConfig(1.0, 1));
  auto twin_created = StreamingDetector::Create(BaseConfig(1.0, 1));
  ASSERT_TRUE(created.ok() && twin_created.ok());
  StreamingDetector& detector = *created.value();
  StreamingDetector& twin = *twin_created.value();

  ASSERT_TRUE(detector.Feed(first).ok());
  ASSERT_TRUE(twin.Feed(first).ok());
  EXPECT_EQ(detector.Feed(far).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(detector.rounds(), 1u);
  EXPECT_EQ(detector.resident_points(), 2u);
  EXPECT_EQ(detector.outliers(), twin.outliers());

  auto delta = detector.Feed(next);
  auto twin_delta = twin.Feed(next);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  ASSERT_TRUE(twin_delta.ok());
  EXPECT_EQ(delta.value().newly_flagged, twin_delta.value().newly_flagged);
  EXPECT_EQ(delta.value().newly_cleared, twin_delta.value().newly_cleared);
  EXPECT_EQ(delta.value().stats.round, 2u);
  EXPECT_EQ(detector.resident_points(), 4u);
  EXPECT_EQ(detector.outliers(), twin.outliers());

  // Under a watermark policy the block is refused before it is buffered.
  StreamingConfig ordered = BaseConfig(1.0, 1);
  ordered.watermark.enabled = true;
  ordered.watermark.lateness = 1.0;
  auto buffered = StreamingDetector::Create(ordered);
  ASSERT_TRUE(buffered.ok());
  EXPECT_EQ(buffered.value()->Ingest(far).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(buffered.value()->buffered_blocks(), 0u);
  EXPECT_EQ(buffered.value()->resident_points(), 0u);
}

TEST(StreamingDetectorTest, CellSideWithAnOversizedRingIsRefused) {
  // r = 2, k = 2 and four points within 3e-4 of each other: no outliers.
  // A side of 1e-12 makes the supporting ring ceil(r / side) = 2e12 cells,
  // past int (its cast once wrapped, clamped to 1 and flagged all four);
  // 1e-6 makes it 2e6, whose (4e6 + 1)^2 cells per touched cell a round
  // never finished walking. Both are refused before anything runs.
  const StreamBlock cluster = MakeBlock({{0, {0.0, 0.0}},
                                         {1, {3e-4, 0.0}},
                                         {2, {0.0, 3e-4}},
                                         {3, {2e-4, 2e-4}}});
  for (double side : {1e-12, 1e-6}) {
    StreamingConfig config = BaseConfig(2.0, 2);
    config.cell_side = side;
    EXPECT_EQ(StreamingDetector::Create(config).status().code(),
              StatusCode::kInvalidArgument)
        << "cell_side " << side;
  }
  // The default side and a 16-cell ring (33^2 cells) answer exactly.
  for (double side : {0.0, 2.0 / 16}) {
    StreamingConfig config = BaseConfig(2.0, 2);
    config.cell_side = side;
    auto created = StreamingDetector::Create(config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    ASSERT_TRUE(created.value()->Feed(cluster).ok());
    EXPECT_TRUE(created.value()->outliers().empty()) << "cell_side " << side;
  }

  // The bound depends on the dims: a 16-cell ring spans 33^3 = 35937
  // cells in 3-D but 33^4 > 2^20 in 4-D. Create cannot know the dims
  // without a grid origin, so the first 4-D block is refused, through
  // Feed and through the reorder stage alike, with the window unchanged.
  StreamingConfig config = BaseConfig(2.0, 2);
  config.cell_side = 2.0 / 16;
  StreamBlock four_d(4);
  const double origin4[4] = {0.0, 0.0, 0.0, 0.0};
  four_d.Add(0, origin4);
  StreamBlock three_d(3);
  three_d.Add(0, origin4);
  auto in_order = StreamingDetector::Create(config);
  ASSERT_TRUE(in_order.ok());
  EXPECT_EQ(in_order.value()->Feed(four_d).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(in_order.value()->rounds(), 0u);
  EXPECT_TRUE(in_order.value()->Feed(three_d).ok());
  StreamingConfig ordered = config;
  ordered.watermark.enabled = true;
  ordered.watermark.lateness = 1.0;
  auto buffered = StreamingDetector::Create(ordered);
  ASSERT_TRUE(buffered.ok());
  EXPECT_EQ(buffered.value()->Ingest(four_d).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(buffered.value()->buffered_blocks(), 0u);
  // With a 4-D grid origin the dims are known up front.
  config.grid_origin = Point(4);
  EXPECT_EQ(StreamingDetector::Create(config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StreamingDetectorTest, BlockUnlikeTheGridOriginIsRefusedOnArrival) {
  // The drain admits buffered blocks without checking them again, so a
  // block whose dims differ from a 2-D grid origin is refused by Ingest,
  // not buffered and lost when the drain reaches it.
  StreamingConfig config = BaseConfig(1.0, 2);
  config.grid_origin = Point{0.0, 0.0};
  config.watermark.enabled = true;
  config.watermark.lateness = 1.0;
  auto created = StreamingDetector::Create(config);
  ASSERT_TRUE(created.ok());
  StreamingDetector& detector = *created.value();
  const auto three_d = detector.Ingest(MakeBlock({{1, {0.0, 0.0, 0.0}}}));
  EXPECT_EQ(three_d.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(detector.buffered_blocks(), 0u);
  ASSERT_TRUE(detector.Ingest(MakeBlock({{2, {0.0, 0.0}}})).ok());
  ASSERT_TRUE(detector.Flush().ok());
  EXPECT_EQ(detector.resident_points(), 1u);
}

TEST(StreamingDetectorTest, ThreadCountPastTheCapIsRefused) {
  StreamingConfig config = BaseConfig(1.0, 2);
  config.num_threads = 1 << 20;
  EXPECT_EQ(StreamingDetector::Create(config).status().code(),
            StatusCode::kInvalidArgument);
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

TEST(StreamingPropertyTest, CellChurnMatchesBatchPipelineAndCountsCells) {
  // A one-block window over a sparse domain: every round expires the whole
  // previous block, so nearly every resident cell empties (its id freed)
  // and the round's cells open on recycled ids.
  StreamSchedule schedule;
  schedule.data = GenerateUniform(4000, DomainForDensity(4000, 3.0), 31);
  schedule.block_size = 200;
  schedule.window_blocks = 1;
  const double radius = 1.0;
  const int k = 1;

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    StreamingConfig config = BaseConfig(radius, k);
    config.num_threads = threads;
    config.window_blocks = schedule.window_blocks;
    DodConfig oracle = DodConfig::Dmt(config.params);
    oracle.num_threads = threads;
    oracle.seed = config.params.seed;

    auto created = StreamingDetector::Create(config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    StreamingDetector& detector = *created.value();

    const double origin[2] = {0.0, 0.0};
    std::vector<PointId> running;
    size_t reopened = 0;
    std::set<CellCoord, CellCoordLess> previous;
    for (size_t b = 0; b < schedule.num_blocks(); ++b) {
      StreamBlock block(schedule.data.dims());
      std::set<CellCoord, CellCoordLess> occupied;
      for (size_t i = schedule.begin(b); i < schedule.end(b); ++i) {
        const double* p = schedule.data[static_cast<PointId>(i)];
        block.Add(static_cast<PointId>(i), p);
        occupied.insert(UniformCellKey(p, 2, origin, radius));
      }
      auto fed = detector.Feed(block);
      ASSERT_TRUE(fed.ok()) << fed.status().ToString();

      std::vector<PointId> next;
      std::set_difference(running.begin(), running.end(),
                          fed.value().newly_cleared.begin(),
                          fed.value().newly_cleared.end(),
                          std::back_inserter(next));
      running.clear();
      std::merge(next.begin(), next.end(), fed.value().newly_flagged.begin(),
                 fed.value().newly_flagged.end(), std::back_inserter(running));
      ASSERT_EQ(running, BatchOracle(schedule, b + 1, oracle))
          << "round " << (b + 1);
      ASSERT_EQ(detector.resident_cells(), occupied.size())
          << "round " << (b + 1);
      EXPECT_EQ(fed.value().stats.resident_cells, occupied.size());
      for (const CellCoord& coord : previous) reopened += occupied.count(coord);
      previous = std::move(occupied);
    }
    // The schedule really churns: few cells survive from round to round,
    // and the verdict mix is not trivial.
    EXPECT_LT(reopened, schedule.data.size() / 5);
    EXPECT_FALSE(running.empty());
    EXPECT_LT(running.size(), schedule.block_size);
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
// schedules, expiry patterns and runtime configurations. Dense schedules
// also pin the incrementally kept saturated_points() gauge to a recount
// from each round's snapshot.

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

// Ids resident after `round` rounds of `schedule`, ascending.
std::vector<PointId> WindowIds(const StreamSchedule& schedule, size_t round) {
  std::vector<PointId> ids;
  for (size_t b = schedule.first_resident(round); b < round; ++b) {
    for (size_t i = schedule.begin(b); i < schedule.end(b); ++i) {
      ids.push_back(static_cast<PointId>(i));
    }
  }
  return ids;
}

// The summary stats of every round of `schedule`, recomputed by brute force
// from their definitions over the windows before and after the round, with
// the service's grid (UniformCellKey, zero origin, side = radius, ring R =
// 1): the touched cells hold the round's appended and evicted points; a
// resident cell is dirty when it lies within Chebyshev distance R of a
// touched cell; insert (expiry) pairs are, per dirty cell, its surviving
// residents times the appended (evicted) points of touched cells within R
// of it; full counts are the appended residents. Re-counts follow a shadow
// of the per-point summaries: an exact count moves by the neighbors
// appended minus evicted, a bound saturated at k + 32 likewise, and
// re-counts once it falls below k.
std::vector<StreamRoundStats> BruteForceRoundStats(
    const StreamSchedule& schedule, double radius, int k) {
  const Dataset& data = schedule.data;
  const int dims = data.dims();
  const double origin[kMaxDimensions] = {0.0};
  const int ring = 1;
  const auto key = [&](PointId id) {
    return UniformCellKey(data[id], dims, origin, radius);
  };
  const auto near_cells = [&](const CellCoord& a, const CellCoord& b) {
    for (int d = 0; d < dims; ++d) {
      if (std::abs(a.c[d] - b.c[d]) > ring) return false;
    }
    return true;
  };
  const auto within = [&](PointId a, PointId b) {
    double sum = 0.0;
    for (int d = 0; d < dims; ++d) {
      const double diff = data[a][d] - data[b][d];
      sum += diff * diff;
    }
    return sum <= radius * radius;
  };
  const auto count_within = [&](PointId p, const std::vector<PointId>& set) {
    uint32_t n = 0;
    for (PointId q : set) n += (q != p && within(p, q)) ? 1 : 0;
    return n;
  };
  struct Summary {
    uint32_t count = 0;
    bool saturated = false;
  };
  const uint32_t cap = static_cast<uint32_t>(k) + 32;
  const auto full_count = [&](PointId p, const std::vector<PointId>& window) {
    const uint32_t n = count_within(p, window);
    return n >= cap ? Summary{cap, true} : Summary{n, false};
  };

  std::map<PointId, Summary> summaries;
  std::vector<StreamRoundStats> rounds;
  for (size_t round = 1; round <= schedule.num_blocks(); ++round) {
    const std::vector<PointId> before = WindowIds(schedule, round - 1);
    const std::vector<PointId> after = WindowIds(schedule, round);
    std::vector<PointId> appended;
    for (size_t i = schedule.begin(round - 1); i < schedule.end(round - 1);
         ++i) {
      appended.push_back(static_cast<PointId>(i));
    }
    std::vector<PointId> entered;  // before ∪ appended, ascending
    std::set_union(before.begin(), before.end(), appended.begin(),
                   appended.end(), std::back_inserter(entered));
    std::vector<PointId> evicted;
    std::set_difference(entered.begin(), entered.end(), after.begin(),
                        after.end(), std::back_inserter(evicted));
    std::vector<PointId> survivors;
    std::set_intersection(before.begin(), before.end(), after.begin(),
                          after.end(), std::back_inserter(survivors));
    std::vector<CellCoord> touched;
    for (PointId id : appended) touched.push_back(key(id));
    for (PointId id : evicted) touched.push_back(key(id));
    std::vector<CellCoord> cells;
    for (PointId id : after) {
      const CellCoord c = key(id);
      if (std::find(cells.begin(), cells.end(), c) == cells.end()) {
        cells.push_back(c);
      }
    }

    StreamRoundStats stats;
    for (const CellCoord& cell : cells) {
      const auto near_cell = [&](const CellCoord& t) {
        return near_cells(t, cell);
      };
      if (std::none_of(touched.begin(), touched.end(), near_cell)) continue;
      ++stats.dirty_cells;
      uint64_t old_residents = 0;
      for (PointId id : survivors) old_residents += key(id) == cell ? 1 : 0;
      for (PointId id : appended) {
        if (near_cells(key(id), cell)) stats.insert_pairs += old_residents;
      }
      for (PointId id : evicted) {
        if (near_cells(key(id), cell)) stats.expiry_pairs += old_residents;
      }
    }
    for (PointId id : survivors) {
      const uint32_t inc = count_within(id, appended);
      const uint32_t dec = count_within(id, evicted);
      Summary& summary = summaries[id];
      const long long next = static_cast<long long>(summary.count) + inc - dec;
      if (summary.saturated && next < k) {
        ++stats.recounted_points;
        summary = full_count(id, after);
      } else {
        summary.count = static_cast<uint32_t>(next);
      }
    }
    for (PointId id : appended) {
      if (!std::binary_search(after.begin(), after.end(), id)) continue;
      ++stats.full_counted_points;
      summaries[id] = full_count(id, after);
    }
    for (PointId id : evicted) summaries.erase(id);
    rounds.push_back(stats);
  }
  return rounds;
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
    // Likewise the round stats, from their definitions.
    const std::vector<StreamRoundStats> expected_stats =
        BruteForceRoundStats(schedule, radius, k);

    for (size_t c = 0; c < cases.size(); ++c) {
      SCOPED_TRACE("schedule=" + entry.name + " case=" + std::to_string(c));
      StreamingConfig config = base;
      config.params.kernels = cases[c].kernels;
      config.num_threads = cases[c].threads;
      config.window_blocks = schedule.window_blocks;
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
        const StreamRoundStats& stats = fed.value().stats;
        const StreamRoundStats& want = expected_stats[b];
        EXPECT_EQ(stats.dirty_cells, want.dirty_cells) << "round " << (b + 1);
        EXPECT_EQ(stats.insert_pairs, want.insert_pairs)
            << "round " << (b + 1);
        EXPECT_EQ(stats.expiry_pairs, want.expiry_pairs)
            << "round " << (b + 1);
        EXPECT_EQ(stats.full_counted_points, want.full_counted_points)
            << "round " << (b + 1);
        EXPECT_EQ(stats.recounted_points, want.recounted_points)
            << "round " << (b + 1);

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
        // every schedule block — and the gauge must return to 0.
        for (size_t b = 0; b < schedule.window_blocks; ++b) {
          const double far = 1e4 * static_cast<double>(b + 1);
          ASSERT_TRUE(detector
                          .Feed(MakeBlock({{static_cast<PointId>(
                                                schedule.data.size() + b),
                                            {far, far}}}))
                          .ok());
        }
        EXPECT_EQ(detector.resident_points(), schedule.window_blocks);
        EXPECT_EQ(detector.saturated_points(), 0u);
        expect_restored_gauge();
      }
    }
  }
}

// Chunked dirty pass: with N threads a round's dirty list is cut into
// min(N, dirty) contiguous chunks whose flips, re-count targets, pair stats
// and first-count partials merge after the pass. Every round's delta and
// stats must equal the one-thread run's, and the delta-reconstructed set
// must equal the batch oracle, including rounds with fewer dirty cells
// than threads, uneven splits, saturated re-counts, and a cell whose old
// residents span several 64-row gathers.

// One schedule for the chunk tests: its blocks in feed order, a count
// window, and the outlier definition and grid side to replay it with.
struct ChunkSchedule {
  std::string name;
  std::vector<StreamBlock> blocks;
  size_t window_blocks = 0;
  double radius = 0.0;
  double cell_side = 0.0;
};

// `n` points uniform over [x0, x0 + extent) x [y0, y0 + extent), with ids
// from `first`.
StreamBlock UniformSquare(PointId first, size_t n, double x0, double y0,
                          double extent, Rng& rng) {
  StreamBlock block(2);
  for (size_t i = 0; i < n; ++i) {
    const double p[2] = {x0 + rng.NextDouble() * extent,
                         y0 + rng.NextDouble() * extent};
    block.Add(first + static_cast<PointId>(i), p);
  }
  return block;
}

TEST(StreamingPropertyTest, ChunkedDirtyPassMatchesOneThreadAndOracle) {
  const int k = 4;
  std::vector<ChunkSchedule> schedules;
  {
    // Dense patches drive saturated bounds below k (re-counts).
    ChunkSchedule s{"patches", {}, 4, 1.5, 0.0};
    const Dataset data = DensePatches(4, 75, 3.0, 0xC4C4);
    for (size_t b = 0; b * 75 < data.size(); ++b) {
      StreamBlock block(2);
      for (size_t i = b * 75; i < (b + 1) * 75; ++i) {
        block.Add(static_cast<PointId>(i), data[static_cast<PointId>(i)]);
      }
      s.blocks.push_back(std::move(block));
    }
    schedules.push_back(std::move(s));
  }
  {
    // Cells of side 3 at r = 0.3 hold ~100 points with exact counts near
    // k: cell (33, 33) = [99, 102)^2 gets 90 points, then 80 more, so the
    // second round tiles 90 old residents in two row gathers, and the
    // first block's expiry decrements 80+ old residents. Single far points
    // make rounds with one or two dirty cells; a spread block dirties an
    // odd number of cells.
    ChunkSchedule s{"big-cell", {}, 3, 0.3, 3.0};
    Rng rng(0xB16C);
    s.blocks.push_back(UniformSquare(0, 90, 99.2, 99.2, 2.6, rng));
    s.blocks.push_back(UniformSquare(100, 80, 99.2, 99.2, 2.6, rng));
    s.blocks.push_back(MakeBlock({{200, {500.0, 500.0}}}));
    s.blocks.push_back(UniformSquare(300, 60, 95.0, 95.0, 10.0, rng));
    s.blocks.push_back(MakeBlock({{400, {700.0, 700.0}}, {401, {900.0, 0.0}}}));
    s.blocks.push_back(UniformSquare(500, 40, 99.2, 99.2, 2.6, rng));
    s.blocks.push_back(UniformSquare(600, 70, 96.0, 99.0, 9.0, rng));
    s.blocks.push_back(MakeBlock({{700, {100.0, 100.0}}}));
    schedules.push_back(std::move(s));
  }

  for (const ChunkSchedule& schedule : schedules) {
    SCOPED_TRACE("schedule=" + schedule.name);
    StreamingConfig base = BaseConfig(schedule.radius, k);
    base.window_blocks = schedule.window_blocks;
    base.cell_side = schedule.cell_side;
    DodConfig oracle_config = DodConfig::Dmt(base.params);
    oracle_config.seed = base.params.seed;

    std::vector<OutlierDelta> reference;  // the one-thread run's deltas
    for (int threads : {1, 2, 3, 7}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      StreamingConfig config = base;
      config.num_threads = threads;
      auto created = StreamingDetector::Create(config);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      StreamingDetector& detector = *created.value();
      std::vector<PointId> running;
      bool fewer_dirty_than_threads = false;
      bool uneven_split = false;
      size_t recounted = 0;
      for (size_t b = 0; b < schedule.blocks.size(); ++b) {
        auto fed = detector.Feed(schedule.blocks[b]);
        ASSERT_TRUE(fed.ok()) << fed.status().ToString();
        const OutlierDelta& delta = fed.value();
        const StreamRoundStats& stats = delta.stats;
        fewer_dirty_than_threads = fewer_dirty_than_threads ||
                                   (stats.dirty_cells > 0 &&
                                    stats.dirty_cells < 3);
        uneven_split = uneven_split || (stats.dirty_cells > 7 &&
                                        stats.dirty_cells % 2 != 0 &&
                                        stats.dirty_cells % 3 != 0 &&
                                        stats.dirty_cells % 7 != 0);
        recounted += stats.recounted_points;
        if (threads == 1) {
          reference.push_back(delta);
        } else {
          const OutlierDelta& want = reference[b];
          const StreamRoundStats& want_stats = want.stats;
          EXPECT_EQ(delta.newly_flagged, want.newly_flagged) << "round " << b;
          EXPECT_EQ(delta.newly_cleared, want.newly_cleared) << "round " << b;
          EXPECT_EQ(stats.dirty_cells, want_stats.dirty_cells);
          EXPECT_EQ(stats.insert_pairs, want_stats.insert_pairs);
          EXPECT_EQ(stats.expiry_pairs, want_stats.expiry_pairs);
          EXPECT_EQ(stats.full_counted_points, want_stats.full_counted_points);
          EXPECT_EQ(stats.recounted_points, want_stats.recounted_points);
          EXPECT_EQ(stats.resident_points, want_stats.resident_points);
          EXPECT_EQ(stats.resident_cells, want_stats.resident_cells);
        }

        // The batch oracle over the window, and brute-force summaries:
        // exact counts equal, saturated bounds certified and >= k.
        Dataset points(2);
        std::vector<PointId> ids;
        const size_t first =
            b + 1 > schedule.window_blocks ? b + 1 - schedule.window_blocks
                                           : 0;
        for (size_t w = first; w <= b; ++w) {
          const StreamBlock& block = schedule.blocks[w];
          for (size_t i = 0; i < block.ids.size(); ++i) {
            points.Append(block.points[static_cast<PointId>(i)]);
            ids.push_back(block.ids[i]);
          }
        }
        std::vector<PointId> want;
        for (PointId local :
             DodPipeline(oracle_config).RunOrDie(points).outliers) {
          want.push_back(ids[local]);
        }
        std::sort(want.begin(), want.end());
        std::vector<PointId> next;
        std::set_difference(running.begin(), running.end(),
                            delta.newly_cleared.begin(),
                            delta.newly_cleared.end(),
                            std::back_inserter(next));
        running.clear();
        std::merge(next.begin(), next.end(), delta.newly_flagged.begin(),
                   delta.newly_flagged.end(), std::back_inserter(running));
        ASSERT_EQ(running, want) << "round " << b;
        ASSERT_EQ(detector.outliers(), want) << "round " << b;
        for (size_t i = 0; i < ids.size(); ++i) {
          uint32_t count = 0;
          for (size_t j = 0; j < ids.size(); ++j) {
            const double dx = points[static_cast<PointId>(i)][0] -
                              points[static_cast<PointId>(j)][0];
            const double dy = points[static_cast<PointId>(i)][1] -
                              points[static_cast<PointId>(j)][1];
            count += i != j && dx * dx + dy * dy <=
                                   schedule.radius * schedule.radius
                         ? 1
                         : 0;
          }
          const std::optional<NeighborCountSummary> summary =
              detector.SummaryOf(ids[i]);
          ASSERT_TRUE(summary.has_value()) << "id " << ids[i];
          if (summary->saturated) {
            EXPECT_LE(summary->count, count) << "id " << ids[i];
            EXPECT_GE(summary->count, static_cast<uint32_t>(k));
          } else {
            EXPECT_EQ(summary->count, count) << "id " << ids[i];
          }
        }
      }
      if (schedule.name == "patches") {
        EXPECT_GT(recounted, 0u);
      } else {
        EXPECT_TRUE(fewer_dirty_than_threads);
        EXPECT_TRUE(uneven_split);
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
