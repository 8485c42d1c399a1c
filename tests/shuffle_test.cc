// Copyright 2026 The DOD Authors.
//
// Columnar zero-copy shuffle: the counting-sort grouping, arena-backed
// partition views, and the shared probe blocks must be byte-identical to
// the classic sorted shuffle — at the grouping layer, through the engine
// (threads × fault schedules), and end-to-end through the pipeline
// (strategies × kernel modes), including the Domain verification job.

#include "mapreduce/shuffle.h"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "detection/brute_force.h"
#include "detection/cell_based.h"
#include "detection/nested_loop.h"
#include "detection/partition_view.h"
#include "durability/checkpoint.h"
#include "durability/memory_budget.h"
#include "mapreduce/job.h"
#include "mapreduce/spill.h"
#include "observability/metrics.h"

namespace dod {
namespace {

using internal::GroupBucket;
using internal::GroupPath;
using internal::GroupScratch;

// ---------------------------------------------------------------------------
// Grouping layer: GroupBucket's two paths must be indistinguishable.

// Buckets of (key, emission sequence) pairs: equal value sequences per
// group prove stability, not just equal multisets.
template <typename K>
std::vector<std::pair<K, int>> SequencedBucket(const std::vector<K>& keys) {
  std::vector<std::pair<K, int>> bucket;
  bucket.reserve(keys.size());
  int seq = 0;
  for (const K& key : keys) bucket.emplace_back(key, seq++);
  return bucket;
}

template <typename K>
void ExpectSameGroups(const GroupedView<K, int>& a,
                      const GroupedView<K, int>& b) {
  ASSERT_EQ(a.num_groups(), b.num_groups());
  ASSERT_EQ(a.num_records(), b.num_records());
  for (size_t g = 0; g < a.num_groups(); ++g) {
    EXPECT_EQ(a.key(g), b.key(g)) << "group " << g;
    ASSERT_EQ(a.size(g), b.size(g)) << "group " << g;
    for (size_t i = 0; i < a.size(g); ++i) {
      EXPECT_EQ(a.value(g, i), b.value(g, i)) << "group " << g << " value "
                                              << i;
    }
  }
}

TEST(ShuffleGroupingTest, ColumnarMatchesSortedOnRandomBuckets) {
  Rng rng(2026);
  for (int round = 0; round < 8; ++round) {
    std::vector<uint32_t> keys(500);
    for (uint32_t& key : keys) {
      key = static_cast<uint32_t>(rng.NextBounded(50));
    }
    std::vector<std::pair<uint32_t, int>> sorted_bucket =
        SequencedBucket(keys);
    std::vector<std::pair<uint32_t, int>> columnar_bucket = sorted_bucket;

    GroupScratch<uint32_t, int> sorted_scratch;
    GroupScratch<uint32_t, int> columnar_scratch;
    GroupPath sorted_path;
    GroupPath columnar_path;
    const GroupedView<uint32_t, int> sorted = GroupBucket(
        sorted_bucket, ShuffleMode::kSorted, &sorted_scratch, &sorted_path);
    const GroupedView<uint32_t, int> columnar =
        GroupBucket(columnar_bucket, ShuffleMode::kColumnar,
                    &columnar_scratch, &columnar_path);

    EXPECT_EQ(sorted_path, GroupPath::kSorted);
    EXPECT_EQ(columnar_path, GroupPath::kColumnar);
    ExpectSameGroups(columnar, sorted);
    // The columnar path must not touch the bucket (attempt retries re-read
    // it); record order is the emission order.
    EXPECT_EQ(columnar_bucket, SequencedBucket(keys));
  }
}

TEST(ShuffleGroupingTest, GroupsAscendingAndStableWithinGroup) {
  std::vector<std::pair<uint32_t, int>> bucket =
      SequencedBucket<uint32_t>({7, 3, 7, 0, 3, 7, 0, 9});
  GroupScratch<uint32_t, int> scratch;
  GroupPath path;
  const GroupedView<uint32_t, int> groups =
      GroupBucket(bucket, ShuffleMode::kColumnar, &scratch, &path);

  ASSERT_EQ(groups.num_groups(), 4u);
  EXPECT_EQ(groups.num_records(), 8u);
  const std::vector<uint32_t> expected_keys = {0, 3, 7, 9};
  for (size_t g = 0; g < groups.num_groups(); ++g) {
    EXPECT_EQ(groups.key(g), expected_keys[g]);
    // Values are emission sequence numbers, so stability means every
    // group's values come out strictly increasing.
    for (size_t i = 1; i < groups.size(g); ++i) {
      EXPECT_LT(groups.value(g, i - 1), groups.value(g, i));
    }
  }
  // Columnar grouping exposes each group as a contiguous value span.
  const int* column = groups.column(2);
  ASSERT_NE(column, nullptr);
  EXPECT_EQ(column[0], 0);
  EXPECT_EQ(column[1], 2);
  EXPECT_EQ(column[2], 5);
}

TEST(ShuffleGroupingTest, SortedBackingHasNoColumn) {
  std::vector<std::pair<uint32_t, int>> bucket =
      SequencedBucket<uint32_t>({1, 1, 2});
  GroupScratch<uint32_t, int> scratch;
  GroupPath path;
  const GroupedView<uint32_t, int> groups =
      GroupBucket(bucket, ShuffleMode::kSorted, &scratch, &path);
  EXPECT_EQ(groups.column(0), nullptr);
  EXPECT_EQ(groups.value(0, 1), 1);
}

TEST(ShuffleGroupingTest, NegativeKeysGroupInAscendingOrder) {
  std::vector<std::pair<int, int>> sorted_bucket =
      SequencedBucket<int>({3, -5, 0, -5, 3, -1, 0});
  std::vector<std::pair<int, int>> columnar_bucket = sorted_bucket;
  GroupScratch<int, int> sorted_scratch;
  GroupScratch<int, int> columnar_scratch;
  GroupPath sorted_path;
  GroupPath columnar_path;
  const GroupedView<int, int> sorted = GroupBucket(
      sorted_bucket, ShuffleMode::kSorted, &sorted_scratch, &sorted_path);
  const GroupedView<int, int> columnar =
      GroupBucket(columnar_bucket, ShuffleMode::kColumnar, &columnar_scratch,
                  &columnar_path);

  EXPECT_EQ(columnar_path, GroupPath::kColumnar);
  ASSERT_EQ(columnar.num_groups(), 4u);
  EXPECT_EQ(columnar.key(0), -5);
  EXPECT_EQ(columnar.key(3), 3);
  ExpectSameGroups(columnar, sorted);
}

TEST(ShuffleGroupingTest, SparseKeyRangeFallsBackToSorting) {
  // Two records a million keys apart: a counting histogram would be
  // absurd, so the columnar request lands on the sorted path.
  std::vector<std::pair<uint32_t, int>> bucket =
      SequencedBucket<uint32_t>({1000000, 0, 1000000});
  GroupScratch<uint32_t, int> scratch;
  GroupPath path;
  internal::FallbackReason reason;
  const GroupedView<uint32_t, int> groups = GroupBucket(
      bucket, ShuffleMode::kColumnar, &scratch, &path, nullptr, &reason);

  EXPECT_EQ(path, GroupPath::kSorted);
  EXPECT_EQ(reason, internal::FallbackReason::kDensity);
  ASSERT_EQ(groups.num_groups(), 2u);
  EXPECT_EQ(groups.key(0), 0u);
  EXPECT_EQ(groups.key(1), 1000000u);
  EXPECT_EQ(groups.size(1), 2u);
  EXPECT_EQ(groups.value(1, 0), 0);
  EXPECT_EQ(groups.value(1, 1), 2);
}

TEST(ShuffleGroupingTest, EmptyAndSingleKeyBuckets) {
  for (ShuffleMode mode : {ShuffleMode::kSorted, ShuffleMode::kColumnar}) {
    std::vector<std::pair<uint32_t, int>> empty;
    GroupScratch<uint32_t, int> scratch;
    GroupPath path;
    const GroupedView<uint32_t, int> none =
        GroupBucket(empty, mode, &scratch, &path);
    EXPECT_EQ(none.num_groups(), 0u);
    EXPECT_EQ(none.num_records(), 0u);

    std::vector<std::pair<uint32_t, int>> single =
        SequencedBucket<uint32_t>({42, 42, 42});
    const GroupedView<uint32_t, int> one =
        GroupBucket(single, mode, &scratch, &path);
    ASSERT_EQ(one.num_groups(), 1u);
    EXPECT_EQ(one.key(0), 42u);
    EXPECT_EQ(one.size(0), 3u);
  }
}

TEST(ShuffleGroupingTest, ModeNamesRoundTrip) {
  EXPECT_STREQ(ShuffleModeName(ShuffleMode::kSorted), "sorted");
  EXPECT_STREQ(ShuffleModeName(ShuffleMode::kColumnar), "columnar");
  ShuffleMode mode;
  EXPECT_TRUE(ParseShuffleMode("sorted", &mode));
  EXPECT_EQ(mode, ShuffleMode::kSorted);
  EXPECT_TRUE(ParseShuffleMode("columnar", &mode));
  EXPECT_EQ(mode, ShuffleMode::kColumnar);
  EXPECT_FALSE(ParseShuffleMode("merge", &mode));
}

// ---------------------------------------------------------------------------
// Engine layer: RunMapReduce output, counters, and shuffle accounting are
// byte-identical across modes, thread counts, and fault schedules. The
// reducer records every group's full value sequence, so any grouping or
// stability difference shows up as an output mismatch.

class SpreadMapper : public Mapper<int, int> {
 public:
  void Map(size_t split_index, Emitter<int, int>& out) override {
    const int base = static_cast<int>(split_index) * 60;
    for (int v = base; v < base + 60; ++v) out.Emit(v % 17, v);
  }
};

struct GroupDigest {
  int key;
  std::vector<int> values;
  bool operator==(const GroupDigest& other) const {
    return key == other.key && values == other.values;
  }
};

class DigestReducer : public Reducer<int, int, GroupDigest> {
 public:
  void Reduce(const int& key, std::vector<int>& values,
              std::vector<GroupDigest>& out, Counters& counters) override {
    out.push_back(GroupDigest{key, values});
    counters.Increment("groups_seen");
    counters.Increment("values_seen", values.size());
  }
};

JobOutput<GroupDigest> RunDigestJob(const JobSpec& spec,
                                    const std::vector<int>* dense = nullptr) {
  SpreadMapper mapper;
  DigestReducer reducer;
  return RunMapReduce<int, int, GroupDigest>(
             /*num_splits=*/7, mapper, reducer,
             [](const int& key) { return key % 4; }, spec,
             /*record_bytes=*/sizeof(int) + sizeof(int),
             /*record_bytes_fn=*/{}, dense)
      .ValueOrDie();
}

// Checkpointing stores outputs as raw bytes, so the crash-resume spill
// test needs a trivially copyable output type — GroupDigest's vector
// disqualifies it.
struct SpillKeySum {
  int key = 0;
  int64_t sum = 0;
  bool operator==(const SpillKeySum& other) const {
    return key == other.key && sum == other.sum;
  }
};

class SpillSumReducer : public Reducer<int, int, SpillKeySum> {
 public:
  void Reduce(const int& key, std::vector<int>& values,
              std::vector<SpillKeySum>& out, Counters& counters) override {
    int64_t sum = 0;
    for (int v : values) sum += v;
    out.push_back(SpillKeySum{key, sum});
    counters.Increment("groups_seen");
  }
};

Result<JobOutput<SpillKeySum>> RunSumJob(const JobSpec& spec) {
  SpreadMapper mapper;
  SpillSumReducer reducer;
  return RunMapReduce<int, int, SpillKeySum>(
      /*num_splits=*/7, mapper, reducer,
      [](const int& key) { return key % 4; }, spec,
      /*record_bytes=*/sizeof(int) + sizeof(int));
}

JobSpec DigestSpec(ShuffleMode mode, int threads, const FaultSpec& faults) {
  JobSpec spec;
  spec.num_reduce_tasks = 4;
  spec.num_threads = threads;
  spec.cluster = ClusterSpec::Local(4);
  spec.shuffle = mode;
  spec.faults = faults;
  if (faults.enabled) spec.retry.max_task_attempts = 4;
  return spec;
}

std::vector<FaultSpec> AllFaultKinds() {
  std::vector<FaultSpec> kinds;
  kinds.push_back(FaultSpec{});  // fault-free
  FaultSpec crash;
  crash.enabled = true;
  crash.seed = 7;
  crash.task_failure_prob = 1.0;
  crash.max_faulty_attempts_per_task = 1;
  kinds.push_back(crash);
  FaultSpec straggle;
  straggle.enabled = true;
  straggle.seed = 7;
  straggle.straggler_prob = 0.5;
  kinds.push_back(straggle);
  FaultSpec drop;
  drop.enabled = true;
  drop.seed = 7;
  drop.shuffle_drop_prob = 0.01;
  drop.max_faulty_attempts_per_task = 1;
  kinds.push_back(drop);
  FaultSpec corrupt;
  corrupt.enabled = true;
  corrupt.seed = 7;
  corrupt.shuffle_corrupt_prob = 0.01;
  corrupt.max_faulty_attempts_per_task = 1;
  kinds.push_back(corrupt);
  return kinds;
}

TEST(ShuffleEngineTest, ModesAgreeAcrossThreadsAndFaults) {
  const JobOutput<GroupDigest> baseline =
      RunDigestJob(DigestSpec(ShuffleMode::kSorted, 1, FaultSpec{}));
  ASSERT_EQ(baseline.output.size(), 17u);

  for (int threads : {1, 4, 8}) {
    for (const FaultSpec& faults : AllFaultKinds()) {
      const JobOutput<GroupDigest> sorted =
          RunDigestJob(DigestSpec(ShuffleMode::kSorted, threads, faults));
      const JobOutput<GroupDigest> columnar =
          RunDigestJob(DigestSpec(ShuffleMode::kColumnar, threads, faults));
      const std::string label =
          "threads=" + std::to_string(threads) +
          " faults=" + std::to_string(faults.enabled);

      EXPECT_EQ(columnar.output, sorted.output) << label;
      EXPECT_EQ(columnar.output, baseline.output) << label;
      EXPECT_EQ(columnar.stats.counters.values(),
                sorted.stats.counters.values())
          << label;
      EXPECT_EQ(columnar.stats.records_shuffled,
                sorted.stats.records_shuffled)
          << label;
      EXPECT_EQ(columnar.stats.bytes_shuffled, sorted.stats.bytes_shuffled)
          << label;
      EXPECT_EQ(columnar.stats.groups_reduced, sorted.stats.groups_reduced)
          << label;
    }
  }
}

TEST(ShuffleEngineTest, DensePartitionTableMatchesPartitionFunction) {
  JobSpec spec = DigestSpec(ShuffleMode::kColumnar, 4, FaultSpec{});
  spec.split_record_hints.assign(7, 60);  // exercise bucket pre-sizing too
  std::vector<int> table(17);
  for (int key = 0; key < 17; ++key) table[key] = key % 4;

  const JobOutput<GroupDigest> via_function = RunDigestJob(spec);
  const JobOutput<GroupDigest> via_table = RunDigestJob(spec, &table);

  EXPECT_EQ(via_table.output, via_function.output);
  EXPECT_EQ(via_table.stats.records_shuffled,
            via_function.stats.records_shuffled);
  EXPECT_EQ(via_table.stats.bytes_shuffled, via_function.stats.bytes_shuffled);
}

// ---------------------------------------------------------------------------
// Partition views and the shared probe arena.

Dataset ViewTestData(size_t n) {
  return GenerateUniform(n, DomainForDensity(n, 0.05), /*seed=*/29);
}

TEST(PartitionViewTest, GatheredViewPreservesLocalOrder) {
  const Dataset data = ViewTestData(64);
  const std::vector<PointId> ids = {9, 3, 60, 3, 17};
  TaskArena arena(data);
  arena.BeginCell();
  for (PointId id : ids) arena.AddPoint(id);
  arena.EndCell(/*num_core=*/2, /*permutation_seed=*/3);
  ASSERT_TRUE(arena.TryBuildProbes().ok());
  const PartitionView view = arena.View(0);

  EXPECT_EQ(view.num_core(), 2u);
  EXPECT_EQ(view.dims(), data.dims());
  ASSERT_EQ(view.size(), ids.size());
  BoundsAccumulator expected(data.dims());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(view.id(i), ids[i]);
    EXPECT_EQ(view.point(i), data[ids[i]]);
    expected.Add(data[ids[i]]);
  }
  const Rect bounds = view.Bounds();
  for (int d = 0; d < data.dims(); ++d) {
    EXPECT_EQ(bounds.min()[d], expected.bounds().min()[d]);
    EXPECT_EQ(bounds.max()[d], expected.bounds().max()[d]);
  }
}

TEST(PartitionViewTest, ArenaSegmentsAreAlignedPermutationsOfTheirCells) {
  const Dataset data = ViewTestData(64);
  TaskArena arena(data);

  // Three staged cells: a normal one, an empty one, and one crossing a
  // block boundary; plus an all-support cell (num_core = 0).
  const std::vector<std::vector<PointId>> cells = {
      {0, 1, 2, 3, 4}, {}, {10, 11, 12, 13, 14, 15, 16, 17, 18}, {20, 21}};
  const std::vector<size_t> num_core = {3, 0, 9, 0};
  for (size_t c = 0; c < cells.size(); ++c) {
    arena.BeginCell();
    for (PointId id : cells[c]) arena.AddPoint(id);
    arena.EndCell(num_core[c], /*permutation_seed=*/1000 + c);
  }
  ASSERT_TRUE(arena.TryBuildProbes().ok());
  ASSERT_EQ(arena.num_cells(), cells.size());

  for (size_t c = 0; c < cells.size(); ++c) {
    const PartitionView view = arena.View(c);
    ASSERT_EQ(view.size(), cells[c].size()) << "cell " << c;
    EXPECT_EQ(view.num_core(), num_core[c]) << "cell " << c;
    if (view.empty()) continue;
    // Segments start on a block boundary so kernels never cross cells.
    EXPECT_EQ(view.probe_begin() % kSoaWidth, 0u) << "cell " << c;

    // The segment's slot ids are a permutation of the cell's local
    // indices, and every slot's coordinates match the id it carries.
    const SoABlock& probes = view.probes();
    std::vector<uint32_t> seen;
    for (size_t slot = view.probe_begin(); slot < view.probe_end(); ++slot) {
      const uint32_t local = probes.IdAt(slot);
      ASSERT_LT(local, view.size()) << "cell " << c;
      seen.push_back(local);
      const double* expected = view.point(local);
      const size_t block = slot / kSoaWidth;
      const size_t lane_slot = slot % kSoaWidth;
      for (int d = 0; d < view.dims(); ++d) {
        EXPECT_EQ(probes.Lane(block, d)[lane_slot], expected[d])
            << "cell " << c << " slot " << slot;
      }
    }
    std::sort(seen.begin(), seen.end());
    for (uint32_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
  }
}

TEST(PartitionViewTest, EqualSeedsRebuildIdenticalSegments) {
  const Dataset data = ViewTestData(32);

  // Each reduce-task attempt stages into a fresh arena; identical seeds
  // must rebuild the identical permutation so retries cannot diverge.
  std::vector<std::vector<uint32_t>> orders;
  for (int attempt = 0; attempt < 2; ++attempt) {
    TaskArena arena(data);
    arena.BeginCell();
    for (PointId id = 0; id < 12; ++id) arena.AddPoint(id);
    arena.EndCell(/*num_core=*/12, /*permutation_seed=*/77);
    ASSERT_TRUE(arena.TryBuildProbes().ok());

    const PartitionView view = arena.View(0);
    std::vector<uint32_t> order;
    for (size_t s = view.probe_begin(); s < view.probe_end(); ++s) {
      order.push_back(view.probes().IdAt(s));
    }
    orders.push_back(std::move(order));
  }
  EXPECT_EQ(orders[0], orders[1]);
}

TEST(PartitionViewTest, AllSupportCellYieldsNoOutliers) {
  const Dataset data = ViewTestData(32);
  TaskArena arena(data);
  arena.BeginCell();
  for (PointId id = 0; id < 8; ++id) arena.AddPoint(id);
  arena.EndCell(/*num_core=*/0, /*permutation_seed=*/5);
  ASSERT_TRUE(arena.TryBuildProbes().ok());

  DetectionParams params{/*radius=*/5.0, /*min_neighbors=*/4};
  const BruteForceDetector detector;
  EXPECT_TRUE(detector.DetectOutliers(arena.View(0), params, nullptr).empty());
}

// Nested-Loop and Cell-Based on every cell of a multi-cell arena must
// return the verdicts of the brute-force oracle on that cell's points,
// gathered into a standalone Dataset (local order preserved), in both
// kernel modes. The cells cover the shapes a reduce task stages: a normal
// cell, an empty cell, an all-support cell, and a cell whose segment
// crosses block boundaries and ends in a partly padded block.
class ArenaDetectorOracle
    : public testing::TestWithParam<std::tuple<AlgorithmKind, KernelMode>> {};

TEST_P(ArenaDetectorOracle, EveryCellMatchesBruteForceOnGatheredDataset) {
  const auto [kind, kernels] = GetParam();
  const Dataset data = ViewTestData(400);

  struct CellCase {
    const char* name;
    std::vector<PointId> core;
    std::vector<PointId> support;
  };
  std::vector<CellCase> cases(4);
  cases[0].name = "normal";
  for (PointId id = 0; id < 400; id += 2) cases[0].core.push_back(id);
  Rng rng(99);
  Shuffle(cases[0].core, rng);
  for (PointId id = 1; id < 400; id += 4) cases[0].support.push_back(id);
  cases[1].name = "empty";
  cases[2].name = "all_support";
  for (PointId id = 100; id < 108; ++id) cases[2].support.push_back(id);
  cases[3].name = "crosses_blocks";
  for (PointId id = 3; id < 400; id += 4) {
    (cases[3].core.size() < 61 ? cases[3].core : cases[3].support)
        .push_back(id);
  }

  TaskArena arena(data);
  for (size_t c = 0; c < cases.size(); ++c) {
    arena.BeginCell();
    for (PointId id : cases[c].core) arena.AddPoint(id);
    for (PointId id : cases[c].support) arena.AddPoint(id);
    arena.EndCell(cases[c].core.size(), CellSeed(42, c) ^ kArenaSeedSalt);
  }
  ASSERT_TRUE(arena.TryBuildProbes().ok());

  DetectionParams params{/*radius=*/5.0, /*min_neighbors=*/4};
  params.kernels = kernels;
  const std::unique_ptr<Detector> detector = MakeDetector(kind);
  const BruteForceDetector oracle;
  size_t oracle_outliers = 0;
  size_t core_points = 0;
  for (size_t c = 0; c < cases.size(); ++c) {
    const PartitionView view = arena.View(c);
    Dataset gathered(data.dims());
    for (size_t i = 0; i < view.size(); ++i) gathered.Append(view.point(i));
    const std::vector<uint32_t> expected =
        oracle.DetectOutliers(gathered, view.num_core(), params);
    params.seed = CellSeed(4242, c);
    EXPECT_EQ(detector->DetectOutliers(view, params, nullptr), expected)
        << AlgorithmKindName(kind) << " cell " << cases[c].name;
    oracle_outliers += expected.size();
    core_points += view.num_core();
  }
  // The verdict mix must be non-trivial for the comparison to mean much.
  EXPECT_GT(oracle_outliers, 0u);
  EXPECT_LT(oracle_outliers, core_points);
}

INSTANTIATE_TEST_SUITE_P(
    PaperDetectors, ArenaDetectorOracle,
    testing::Combine(testing::Values(AlgorithmKind::kNestedLoop,
                                     AlgorithmKind::kCellBased),
                     testing::Values(KernelMode::kScalar, KernelMode::kAuto)),
    [](const testing::TestParamInfo<std::tuple<AlgorithmKind, KernelMode>>&
           info) {
      std::string name =
          std::string(AlgorithmKindName(std::get<0>(info.param))) + "_" +
          KernelModeName(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Pipeline layer: --shuffle is invisible end to end.

const Dataset& PipelineData() {
  static const Dataset data =
      GenerateUniform(2000, DomainForDensity(2000, 0.05), /*seed=*/7);
  return data;
}

std::vector<PointId> PipelineGroundTruth() {
  DetectionParams params{/*radius=*/5.0, /*min_neighbors=*/4};
  BruteForceDetector oracle;
  const Dataset& data = PipelineData();
  std::vector<uint32_t> local =
      oracle.DetectOutliers(data, data.size(), params, nullptr);
  return std::vector<PointId>(local.begin(), local.end());
}

DodConfig PipelineConfig(StrategyKind strategy, ShuffleMode shuffle,
                         int threads, KernelMode kernels,
                         const FaultSpec& faults) {
  DetectionParams params{/*radius=*/5.0, /*min_neighbors=*/4};
  params.kernels = kernels;
  DodConfig config =
      strategy == StrategyKind::kDmt
          ? DodConfig::Dmt(params)
          : DodConfig::Baseline(params, strategy, AlgorithmKind::kCellBased);
  config.target_partitions = 16;
  config.num_reduce_tasks = 5;
  config.num_blocks = 7;
  config.num_threads = threads;
  config.sampler.rate = 0.2;
  config.sampler.buckets_per_dim = 16;
  config.shuffle = shuffle;
  config.faults = faults;
  if (faults.enabled) config.retry.max_task_attempts = 4;
  return config;
}

void ExpectSameRun(const DodResult& columnar, const DodResult& sorted,
                   const std::string& label) {
  EXPECT_EQ(columnar.outliers, sorted.outliers) << label;
  EXPECT_EQ(columnar.detect_stats.counters.values(),
            sorted.detect_stats.counters.values())
      << label;
  EXPECT_EQ(columnar.detect_stats.records_shuffled,
            sorted.detect_stats.records_shuffled)
      << label;
  EXPECT_EQ(columnar.detect_stats.bytes_shuffled,
            sorted.detect_stats.bytes_shuffled)
      << label;
  EXPECT_EQ(columnar.detect_stats.groups_reduced,
            sorted.detect_stats.groups_reduced)
      << label;
  EXPECT_EQ(columnar.verify_stats.counters.values(),
            sorted.verify_stats.counters.values())
      << label;
  EXPECT_EQ(columnar.verify_stats.records_shuffled,
            sorted.verify_stats.records_shuffled)
      << label;
  EXPECT_EQ(columnar.verify_stats.bytes_shuffled,
            sorted.verify_stats.bytes_shuffled)
      << label;
}

TEST(PipelineShuffleEquivalence, DmtAcrossThreadsAndKernels) {
  const std::vector<PointId> truth = PipelineGroundTruth();
  for (int threads : {1, 4, 8}) {
    for (KernelMode kernels : {KernelMode::kScalar, KernelMode::kAuto}) {
      const std::string label = "threads=" + std::to_string(threads) +
                                " kernels=" + KernelModeName(kernels);
      const DodResult sorted =
          DodPipeline(PipelineConfig(StrategyKind::kDmt, ShuffleMode::kSorted,
                                     threads, kernels, FaultSpec{}))
              .RunOrDie(PipelineData());
      const DodResult columnar =
          DodPipeline(PipelineConfig(StrategyKind::kDmt,
                                     ShuffleMode::kColumnar, threads, kernels,
                                     FaultSpec{}))
              .RunOrDie(PipelineData());
      ExpectSameRun(columnar, sorted, label);
      EXPECT_EQ(columnar.outliers, truth) << label;
    }
  }
}

TEST(PipelineShuffleEquivalence, DomainVerificationJob) {
  // The Domain baseline runs the second (verification) MapReduce job, whose
  // reducer counts candidate neighbors against arena-built border probes.
  const std::vector<PointId> truth = PipelineGroundTruth();
  for (int threads : {1, 4}) {
    const std::string label = "domain threads=" + std::to_string(threads);
    const DodResult sorted =
        DodPipeline(PipelineConfig(StrategyKind::kDomain,
                                   ShuffleMode::kSorted, threads,
                                   KernelMode::kAuto, FaultSpec{}))
            .RunOrDie(PipelineData());
    const DodResult columnar =
        DodPipeline(PipelineConfig(StrategyKind::kDomain,
                                   ShuffleMode::kColumnar, threads,
                                   KernelMode::kAuto, FaultSpec{}))
            .RunOrDie(PipelineData());
    ExpectSameRun(columnar, sorted, label);
    EXPECT_EQ(columnar.outliers, truth) << label;
    EXPECT_GT(columnar.verify_stats.records_shuffled, 0u) << label;
  }
}

TEST(PipelineShuffleEquivalence, FaultSchedulesCannotTellModesApart) {
  const std::vector<PointId> truth = PipelineGroundTruth();
  for (const FaultSpec& faults : AllFaultKinds()) {
    if (!faults.enabled) continue;
    const std::string label =
        std::string("fault-kind drop=") +
        std::to_string(faults.shuffle_drop_prob) +
        " corrupt=" + std::to_string(faults.shuffle_corrupt_prob) +
        " crash=" + std::to_string(faults.task_failure_prob) +
        " straggle=" + std::to_string(faults.straggler_prob);
    const DodResult sorted =
        DodPipeline(PipelineConfig(StrategyKind::kDmt, ShuffleMode::kSorted,
                                   4, KernelMode::kAuto, faults))
            .RunOrDie(PipelineData());
    const DodResult columnar =
        DodPipeline(PipelineConfig(StrategyKind::kDmt, ShuffleMode::kColumnar,
                                   4, KernelMode::kAuto, faults))
            .RunOrDie(PipelineData());
    ExpectSameRun(columnar, sorted, label);
    EXPECT_EQ(columnar.outliers, truth) << label;
  }
}

uint64_t MetricCount(const std::vector<MetricSnapshot>& snapshots,
                     const std::string& name) {
  for (const MetricSnapshot& m : snapshots) {
    if (m.name == name) return m.count;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Spill-to-disk shuffle runs: byte-identical to the in-memory paths across
// modes × threads × faults, garbage-collected run files, reason-labeled
// fallbacks, and exact crash-resume with spilled checkpoints.

std::string FreshSpillDir(const char* tag) {
  const std::string dir = testing::TempDir() + "/dod_spill_" + tag + "_" +
                          std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

size_t SpillFilesIn(const std::string& dir) {
  // Recursive: the engine namespaces run files per job under the
  // configured spill dir.
  std::error_code ec;
  size_t count = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".runs") ++count;
  }
  return count;
}

TEST(ShuffleSpillTest, TaskSpillerRoundTripsSortedRunsWithChecksums) {
  const std::string dir = FreshSpillDir("roundtrip");
  std::filesystem::create_directories(dir);
  const std::string file = internal::SpillFilePath(dir, "map", 0);
  internal::SpillGc gc;
  internal::TaskSpiller<uint32_t, int> spiller(file, &gc);

  // Two flushes (time slices), each stably sorted on write. Partition 1
  // stays empty throughout and must produce no run.
  internal::TaskSpiller<uint32_t, int>::Buckets buckets(3);
  buckets[0] = SequencedBucket<uint32_t>({5, 1, 5, 3});
  buckets[2] = SequencedBucket<uint32_t>({9, 9});
  spiller.Spill(buckets);
  ASSERT_TRUE(spiller.status().ok());
  EXPECT_TRUE(buckets[0].empty());  // flushed buckets are cleared
  buckets[0] = SequencedBucket<uint32_t>({2, 1});
  ASSERT_TRUE(spiller.Finish(buckets).ok());

  std::vector<internal::SpillRunInfo> runs = spiller.TakeRuns();
  ASSERT_EQ(runs.size(), 3u);  // {p0, p2} then {p0}
  EXPECT_EQ(runs[0].partition, 0u);
  EXPECT_EQ(runs[0].records, 4u);
  EXPECT_EQ(runs[0].min_key, 1u);
  EXPECT_EQ(runs[0].max_key, 5u);
  EXPECT_EQ(runs[1].partition, 2u);
  EXPECT_EQ(runs[2].partition, 0u);
  EXPECT_EQ(runs[2].records, 2u);

  // Flush 1 of partition 0, sorted stably: (1,1) (3,3) (5,0) (5,2).
  internal::SpillRunCursor<uint32_t, int> cursor;
  ASSERT_TRUE(cursor.Open(runs[0]).ok());
  const std::vector<std::pair<uint32_t, int>> expected = {
      {1, 1}, {3, 3}, {5, 0}, {5, 2}};
  for (const auto& record : expected) {
    ASSERT_FALSE(cursor.AtEnd());
    EXPECT_EQ(cursor.Head(), record);
    ASSERT_TRUE(cursor.Advance().ok());
  }
  EXPECT_TRUE(cursor.AtEnd());

  // Flip one payload byte: the cursor must fail the checksum, not hand the
  // reducer silently corrupted groups.
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(runs[0].offset));
    char byte;
    f.seekg(static_cast<std::streamoff>(runs[0].offset));
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(static_cast<std::streamoff>(runs[0].offset));
    f.write(&byte, 1);
  }
  internal::SpillRunCursor<uint32_t, int> corrupted;
  Status status = corrupted.Open(runs[0]);
  while (status.ok() && !corrupted.AtEnd()) status = corrupted.Advance();
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("checksum"), std::string::npos);
}

// Grouping oracle: GroupSegments over every segment layout, budget regime
// and key shape must produce the groups of a std::stable_sort of the
// concatenated records, and report the expected (path, reason).

enum class SegmentLayout { kAllMemory, kMixed, kAllRuns };
enum class BudgetRegime { kNone, kDeniesScratch, kDegradeWindow };

const char* LayoutName(SegmentLayout layout) {
  switch (layout) {
    case SegmentLayout::kAllMemory:
      return "all-memory";
    case SegmentLayout::kMixed:
      return "mixed";
    case SegmentLayout::kAllRuns:
      return "all-runs";
  }
  return "?";
}

const char* BudgetName(BudgetRegime budget) {
  switch (budget) {
    case BudgetRegime::kNone:
      return "no-budget";
    case BudgetRegime::kDeniesScratch:
      return "denies-scratch";
    case BudgetRegime::kDegradeWindow:
      return "degrade-window";
  }
  return "?";
}

// Groups must be maximal equal-key runs in ascending key order whose
// flattened contents equal the stable sort of `records` by key.
template <typename K>
void ExpectStableSortGroups(const GroupedView<K, int>& groups,
                            std::vector<std::pair<K, int>> records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const std::pair<K, int>& a, const std::pair<K, int>& b) {
                     return a.first < b.first;
                   });
  ASSERT_EQ(groups.num_records(), records.size());
  size_t i = 0;
  for (size_t g = 0; g < groups.num_groups(); ++g) {
    if (g > 0) {
      EXPECT_LT(groups.key(g - 1), groups.key(g)) << "group " << g;
    }
    for (size_t j = 0; j < groups.size(g); ++j, ++i) {
      ASSERT_LT(i, records.size());
      EXPECT_EQ(groups.key(g), records[i].first) << "record " << i;
      EXPECT_EQ(groups.value(g, j), records[i].second) << "record " << i;
    }
  }
  EXPECT_EQ(i, records.size());
}

// Runs every mode × layout × budget case over one key shape. `admitted`
// says whether the key shape passes the columnar density guard.
template <typename K>
void CheckGroupingOracle(const std::vector<K>& keys, bool admitted,
                         const std::string& dir, int* case_id) {
  const std::vector<std::pair<K, int>> all = SequencedBucket(keys);
  const size_t per_slice = all.size() / 4;
  int64_t min_key = keys.front();
  int64_t max_key = keys.front();
  for (K key : keys) {
    min_key = std::min<int64_t>(min_key, key);
    max_key = std::max<int64_t>(max_key, key);
  }
  const uint64_t scratch_bytes = internal::ColumnarScratchBytes(
      all.size(), static_cast<uint64_t>(max_key - min_key + 1), sizeof(K),
      sizeof(int));

  for (ShuffleMode mode : {ShuffleMode::kSorted, ShuffleMode::kColumnar}) {
    for (SegmentLayout layout : {SegmentLayout::kAllMemory,
                                 SegmentLayout::kMixed,
                                 SegmentLayout::kAllRuns}) {
      for (BudgetRegime regime : {BudgetRegime::kNone,
                                  BudgetRegime::kDeniesScratch,
                                  BudgetRegime::kDegradeWindow}) {
        SCOPED_TRACE(std::string(ShuffleModeName(mode)) + " " +
                     LayoutName(layout) + " " + BudgetName(regime));
        const int id = (*case_id)++;
        // Four map-task slices in emission order. Mixed: slices 1 and 2
        // are one task's two spill flushes, the others stay in memory.
        std::vector<std::vector<std::pair<K, int>>> slices(4);
        for (size_t s = 0; s < 4; ++s) {
          slices[s].assign(all.begin() + s * per_slice,
                           all.begin() + (s + 1) * per_slice);
        }
        internal::SpillGc gc;
        internal::TaskSpiller<K, int> map_spiller(
            internal::SpillFilePath(dir, "map", id), &gc);
        std::vector<internal::ShuffleSegment<K, int>> segments;
        std::vector<size_t> memory_slices;
        for (size_t s = 0; s < 4; ++s) {
          const bool spill = layout == SegmentLayout::kAllRuns ||
                             (layout == SegmentLayout::kMixed &&
                              (s == 1 || s == 2));
          if (!spill) {
            segments.push_back({&slices[s], {}});
            memory_slices.push_back(s);
            continue;
          }
          typename internal::TaskSpiller<K, int>::Buckets flush(1);
          flush[0] = slices[s];
          map_spiller.Spill(flush);
          ASSERT_TRUE(map_spiller.status().ok());
        }
        // Runs take their slice's position in (split, flush) order.
        std::vector<internal::SpillRunInfo> runs = map_spiller.TakeRuns();
        if (layout == SegmentLayout::kMixed) {
          ASSERT_EQ(runs.size(), 2u);
          segments.insert(segments.begin() + 1, {nullptr, runs[0]});
          segments.insert(segments.begin() + 2, {nullptr, runs[1]});
        } else if (layout == SegmentLayout::kAllRuns) {
          ASSERT_EQ(runs.size(), 4u);
          for (const internal::SpillRunInfo& run : runs) {
            segments.push_back({nullptr, run});
          }
        }

        std::optional<MemoryBudget> budget;
        if (regime == BudgetRegime::kDeniesScratch) budget.emplace(16);
        // Fits the histogram scratch alone, not next to resident segments.
        if (regime == BudgetRegime::kDegradeWindow) {
          budget.emplace(scratch_bytes + 64);
        }
        const MemoryBudget* budget_ptr = budget ? &*budget : nullptr;

        GroupPath want_path = GroupPath::kSorted;
        internal::FallbackReason want_reason = internal::FallbackReason::kNone;
        if (mode == ShuffleMode::kColumnar) {
          if (!admitted) {
            want_reason = internal::FallbackReason::kDensity;
          } else if (regime == BudgetRegime::kDeniesScratch) {
            want_reason = internal::FallbackReason::kBudget;
          } else {
            want_path = GroupPath::kColumnar;
            if (regime == BudgetRegime::kDegradeWindow &&
                !memory_slices.empty()) {
              want_reason = internal::FallbackReason::kSpill;
            }
          }
        }

        internal::TaskSpiller<K, int> degrade(
            internal::SpillFilePath(dir, "reduce", id), &gc);
        GroupScratch<K, int> scratch;
        GroupPath path;
        internal::FallbackReason reason;
        auto grouped = internal::GroupSegments(segments, mode, &scratch, &path,
                                               &reason, budget_ptr, &degrade);
        ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
        EXPECT_EQ(path, want_path);
        EXPECT_EQ(reason, want_reason);
        EXPECT_EQ(grouped.value().column(0) != nullptr,
                  want_path == GroupPath::kColumnar);
        ExpectStableSortGroups(grouped.value(), all);

        if (want_reason != internal::FallbackReason::kSpill) {
          EXPECT_FALSE(degrade.spilled());
          continue;
        }
        // The degrade replaced every memory segment by a run in place and
        // freed its bucket for real.
        for (const internal::ShuffleSegment<K, int>& segment : segments) {
          EXPECT_EQ(segment.memory, nullptr);
        }
        for (size_t s : memory_slices) {
          EXPECT_EQ(slices[s].capacity(), 0u) << "slice " << s;
        }
        // Attempt retry: regroups the same (now all-run) segment list with
        // the same degrade target — same groups, same (path, reason), no
        // new runs.
        GroupScratch<K, int> retry_scratch;
        GroupPath retry_path;
        internal::FallbackReason retry_reason;
        auto regrouped = internal::GroupSegments(
            segments, mode, &retry_scratch, &retry_path, &retry_reason,
            budget_ptr, &degrade);
        ASSERT_TRUE(regrouped.ok()) << regrouped.status().ToString();
        EXPECT_EQ(retry_path, want_path);
        EXPECT_EQ(retry_reason, want_reason);
        ExpectStableSortGroups(regrouped.value(), all);
        EXPECT_EQ(degrade.TakeRuns().size(), memory_slices.size());
      }
    }
  }
}

TEST(ShuffleSpillTest, GroupSegmentsMatchesStableSortOracle) {
  const std::string dir = FreshSpillDir("oracle");
  std::filesystem::create_directories(dir);
  Rng rng(4097);
  int case_id = 0;
  constexpr size_t kRecords = 480;

  // Dense cell-id-like keys: the columnar path's home ground.
  std::vector<uint32_t> dense(kRecords);
  for (uint32_t& key : dense) key = static_cast<uint32_t>(rng.NextBounded(40));
  CheckGroupingOracle(dense, /*admitted=*/true, dir, &case_id);

  // Sparse keys a million apart: the density guard rejects the histogram.
  std::vector<uint32_t> sparse(kRecords);
  for (uint32_t& key : sparse) {
    key = static_cast<uint32_t>(rng.NextBounded(8)) * 1000000u;
  }
  CheckGroupingOracle(sparse, /*admitted=*/false, dir, &case_id);

  // Mixed-sign int8_t keys: the unsigned subtraction promotes to int and
  // goes negative across the sign boundary, so the guard rejects — in
  // memory and off run metadata alike.
  std::vector<int8_t> narrow(kRecords);
  for (size_t i = 0; i < narrow.size(); ++i) {
    narrow[i] = static_cast<int8_t>(static_cast<int>(i * 37 % 201) - 100);
  }
  CheckGroupingOracle(narrow, /*admitted=*/false, dir, &case_id);

  // Mixed-sign int keys over a small span: admitted (the subtraction
  // wraps back to the true span), and groups come out negative-first. A
  // run's raw u64 max sits below its raw min here, so the span must be
  // decoded in the signed domain.
  std::vector<int> mixed(kRecords);
  for (int& key : mixed) key = static_cast<int>(rng.NextBounded(100)) - 50;
  CheckGroupingOracle(mixed, /*admitted=*/true, dir, &case_id);
}

JobSpec SpilledDigestSpec(ShuffleMode mode, int threads,
                          const FaultSpec& faults, const std::string& dir,
                          uint64_t threshold_bytes) {
  JobSpec spec = DigestSpec(mode, threads, faults);
  spec.spill.dir = dir;
  spec.spill.threshold_bytes = threshold_bytes;
  return spec;
}

TEST(ShuffleSpillTest, SpilledRunsMatchInMemoryAcrossModesThreadsAndFaults) {
  // Each map task emits 60 8-byte pairs (480 bytes); a 128-byte threshold
  // forces several mid-task flushes plus the Finish remainder.
  const std::string dir = FreshSpillDir("matrix");
  const JobOutput<GroupDigest> baseline =
      RunDigestJob(DigestSpec(ShuffleMode::kSorted, 1, FaultSpec{}));

  for (ShuffleMode mode : {ShuffleMode::kSorted, ShuffleMode::kColumnar}) {
    for (int threads : {1, 4, 8}) {
      for (const FaultSpec& faults : AllFaultKinds()) {
        const std::string label =
            std::string(ShuffleModeName(mode)) +
            " threads=" + std::to_string(threads) +
            " faults=" + std::to_string(faults.enabled) +
            " crash=" + std::to_string(faults.task_failure_prob);
        const JobOutput<GroupDigest> in_memory =
            RunDigestJob(DigestSpec(mode, threads, faults));
        const JobOutput<GroupDigest> spilled = RunDigestJob(
            SpilledDigestSpec(mode, threads, faults, dir, /*threshold=*/128));

        EXPECT_EQ(spilled.output, in_memory.output) << label;
        EXPECT_EQ(spilled.output, baseline.output) << label;
        EXPECT_EQ(spilled.stats.counters.values(),
                  in_memory.stats.counters.values())
            << label;
        EXPECT_EQ(spilled.stats.records_shuffled,
                  in_memory.stats.records_shuffled)
            << label;
        EXPECT_EQ(spilled.stats.bytes_shuffled, in_memory.stats.bytes_shuffled)
            << label;
        EXPECT_EQ(spilled.stats.groups_reduced, in_memory.stats.groups_reduced)
            << label;
        // Run files are job-scoped garbage: none survive the job, even
        // under retries and speculative schedules.
        EXPECT_EQ(SpillFilesIn(dir), 0u) << label;
      }
    }
  }
}

TEST(ShuffleSpillTest, SpillMetricsAndPathsAreRecorded) {
  const std::string dir = FreshSpillDir("metrics");
  MetricsRegistry& metrics = MetricsRegistry::Global();

  metrics.Reset();
  FaultSpec crash = AllFaultKinds()[1];  // every task fails once, retries
  RunDigestJob(
      SpilledDigestSpec(ShuffleMode::kColumnar, 4, crash, dir, 128));
  const std::vector<MetricSnapshot> columnar = metrics.Snapshot();
  EXPECT_EQ(MetricCount(columnar, "mr.spill.map_tasks"), 7u);
  EXPECT_GT(MetricCount(columnar, "mr.spill.runs_written"), 0u);
  EXPECT_GT(MetricCount(columnar, "mr.spill.bytes_written"), 0u);
  EXPECT_GT(MetricCount(columnar, "mr.spill.runs_merged"), 0u);
  EXPECT_GT(MetricCount(columnar, "mr.spill.bytes_read"), 0u);
  EXPECT_EQ(MetricCount(columnar, "mr.shuffle.columnar_tasks"), 4u);
  EXPECT_EQ(MetricCount(columnar, "mr.shuffle.sorted_tasks"), 0u);
  // Dense keys, no budget: the spill came from the threshold, not from a
  // guard, so no fallback reason is charged.
  EXPECT_EQ(MetricCount(columnar, "mr.shuffle.fallback.density"), 0u);
  EXPECT_EQ(MetricCount(columnar, "mr.shuffle.fallback.budget"), 0u);
  EXPECT_EQ(MetricCount(columnar, "mr.shuffle.fallback.spill"), 0u);

  metrics.Reset();
  RunDigestJob(
      SpilledDigestSpec(ShuffleMode::kSorted, 4, FaultSpec{}, dir, 128));
  const std::vector<MetricSnapshot> sorted = metrics.Snapshot();
  EXPECT_EQ(MetricCount(sorted, "mr.shuffle.sorted_tasks"), 4u);
  EXPECT_EQ(MetricCount(sorted, "mr.shuffle.columnar_tasks"), 0u);
  EXPECT_GT(MetricCount(sorted, "mr.spill.runs_merged"), 0u);
}

// A sparse-key mapper: the density guard, not the budget or the spill
// threshold, is what pushes these tasks off the counting-sort path.
class SparseKeyMapper : public Mapper<int, int> {
 public:
  void Map(size_t split_index, Emitter<int, int>& out) override {
    const int base = static_cast<int>(split_index) * 10;
    for (int v = base; v < base + 10; ++v) out.Emit(v * 1000000, v);
  }
};

TEST(ShuffleSpillTest, FallbackReasonCountersLabelEachGuard) {
  MetricsRegistry& metrics = MetricsRegistry::Global();

  // Density: sparse keys in columnar mode.
  metrics.Reset();
  {
    SparseKeyMapper mapper;
    DigestReducer reducer;
    JobSpec spec = DigestSpec(ShuffleMode::kColumnar, 1, FaultSpec{});
    RunMapReduce<int, int, GroupDigest>(
        /*num_splits=*/3, mapper, reducer,
        [](const int& key) { return (key / 1000000) % 4; }, spec)
        .ValueOrDie();
  }
  const std::vector<MetricSnapshot> density = metrics.Snapshot();
  EXPECT_GT(MetricCount(density, "mr.shuffle.fallback.density"), 0u);
  EXPECT_EQ(MetricCount(density, "mr.shuffle.fallback.budget"), 0u);
  EXPECT_EQ(MetricCount(density, "mr.shuffle.fallback.spill"), 0u);

  // Budget: a budget too small for any histogram scratch, no spill dir.
  metrics.Reset();
  {
    MemoryBudget tiny(16);
    JobSpec spec = DigestSpec(ShuffleMode::kColumnar, 1, FaultSpec{});
    spec.memory = &tiny;
    RunDigestJob(spec);
  }
  const std::vector<MetricSnapshot> budget = metrics.Snapshot();
  EXPECT_GT(MetricCount(budget, "mr.shuffle.fallback.budget"), 0u);
  EXPECT_EQ(MetricCount(budget, "mr.shuffle.fallback.density"), 0u);
  EXPECT_EQ(MetricCount(budget, "mr.shuffle.fallback.spill"), 0u);

  // Spill: the grouping oracle's degrade window, but through the engine,
  // with a spill dir available. Reduce task 0's
  // bucket holds 123 records over key range [0, 16].
  metrics.Reset();
  const std::string dir = FreshSpillDir("reason");
  {
    const uint64_t scratch_bytes = internal::ColumnarScratchBytes(
        /*records=*/123, /*range=*/17, sizeof(int), sizeof(int));
    MemoryBudget window(scratch_bytes + 64);
    JobSpec spec = SpilledDigestSpec(ShuffleMode::kColumnar, 1, FaultSpec{},
                                     dir, uint64_t{1} << 30);
    spec.memory = &window;
    const JobOutput<GroupDigest> degraded = RunDigestJob(spec);
    const JobOutput<GroupDigest> reference =
        RunDigestJob(DigestSpec(ShuffleMode::kColumnar, 1, FaultSpec{}));
    EXPECT_EQ(degraded.output, reference.output);
  }
  const std::vector<MetricSnapshot> spill = metrics.Snapshot();
  EXPECT_GT(MetricCount(spill, "mr.shuffle.fallback.spill"), 0u);
  EXPECT_GT(MetricCount(spill, "mr.shuffle.columnar_tasks"), 0u);
  EXPECT_GT(MetricCount(spill, "mr.spill.reduce_tasks"), 0u);
  EXPECT_EQ(SpillFilesIn(dir), 0u);
}

TEST(ShuffleSpillTest, CrashResumeRestoresSpilledCheckpointsExactly) {
  const JobOutput<SpillKeySum> baseline =
      RunSumJob(DigestSpec(ShuffleMode::kColumnar, 1, FaultSpec{}))
          .ValueOrDie();

  for (ShuffleMode mode : {ShuffleMode::kSorted, ShuffleMode::kColumnar}) {
    const std::string tag = ShuffleModeName(mode);
    const std::string dir = FreshSpillDir(("resume_" + tag).c_str());
    const std::string ckpt = dir + "_ckpt";
    std::error_code ec;
    std::filesystem::remove_all(ckpt, ec);

    MetricsRegistry& metrics = MetricsRegistry::Global();
    metrics.Reset();
    {
      auto store = CheckpointStore::Open(ckpt, "sum", /*resume=*/false)
                       .ValueOrDie();
      JobSpec crashing =
          SpilledDigestSpec(mode, 1, FaultSpec{}, dir, /*threshold=*/128);
      crashing.checkpoint = store.get();
      crashing.faults.crash_at_task = 1;
      crashing.faults.crash_phase = TaskPhase::kReduce;
      const auto crashed = RunSumJob(crashing);
      ASSERT_FALSE(crashed.ok()) << tag;
      ASSERT_EQ(crashed.status().code(), StatusCode::kUnavailable) << tag;
    }
    // The failed checkpointing job must leave its runs for the resume —
    // the durable map records reference them.
    EXPECT_GT(SpillFilesIn(dir), 0u) << tag;

    {
      auto store = CheckpointStore::Open(ckpt, "sum", /*resume=*/true)
                       .ValueOrDie();
      JobSpec resuming =
          SpilledDigestSpec(mode, 1, FaultSpec{}, dir, /*threshold=*/128);
      resuming.checkpoint = store.get();
      resuming.resume = true;
      const JobOutput<SpillKeySum> resumed =
          RunSumJob(resuming).ValueOrDie();
      EXPECT_EQ(resumed.output, baseline.output) << tag;
    }
    // Every restored run descriptor validated against its file: resuming
    // with intact spill files must not burn a single load failure, and the
    // successful resume garbage-collects the runs.
    const std::vector<MetricSnapshot> after = metrics.Snapshot();
    EXPECT_EQ(MetricCount(after, "durability.checkpoint.load_failures"), 0u)
        << tag;
    EXPECT_GT(MetricCount(after, "durability.checkpoint.tasks_resumed"), 0u)
        << tag;
    EXPECT_EQ(SpillFilesIn(dir), 0u) << tag;
  }
}

TEST(ShuffleSpillTest, ResumeSweepsOrphanedReduceRuns) {
  // A reduce task that degrades to spill-then-stream, checkpoints, and is
  // then restored on resume never regroups — nothing re-tracks its run
  // file. The success-exit sweep of the job's spill namespace must
  // reclaim it anyway.
  const JobOutput<SpillKeySum> baseline =
      RunSumJob(DigestSpec(ShuffleMode::kColumnar, 1, FaultSpec{}))
          .ValueOrDie();
  const std::string dir = FreshSpillDir("orphan");
  const std::string ckpt = dir + "_ckpt";
  std::error_code ec;
  std::filesystem::remove_all(ckpt, ec);

  // Reduce task 0's bucket: 123 records over key range [0, 16]. The
  // window fits the histogram scratch alone but not next to the resident
  // bucket, so the task spills; the map side (1 GiB threshold) never does.
  const uint64_t scratch_bytes = internal::ColumnarScratchBytes(
      /*records=*/123, /*range=*/17, sizeof(int), sizeof(int));
  {
    auto store =
        CheckpointStore::Open(ckpt, "sum", /*resume=*/false).ValueOrDie();
    MemoryBudget window(scratch_bytes + 64);
    JobSpec crashing = SpilledDigestSpec(ShuffleMode::kColumnar, 1,
                                         FaultSpec{}, dir, uint64_t{1} << 30);
    crashing.memory = &window;
    crashing.checkpoint = store.get();
    crashing.faults.crash_at_task = 1;
    crashing.faults.crash_phase = TaskPhase::kReduce;
    const auto crashed = RunSumJob(crashing);
    ASSERT_FALSE(crashed.ok());
    ASSERT_EQ(crashed.status().code(), StatusCode::kUnavailable);
  }
  // Reduce task 0 committed after spilling: its run survives the failure.
  EXPECT_GT(SpillFilesIn(dir), 0u);

  {
    auto store =
        CheckpointStore::Open(ckpt, "sum", /*resume=*/true).ValueOrDie();
    MemoryBudget window(scratch_bytes + 64);
    JobSpec resuming = SpilledDigestSpec(ShuffleMode::kColumnar, 1,
                                         FaultSpec{}, dir, uint64_t{1} << 30);
    resuming.memory = &window;
    resuming.checkpoint = store.get();
    resuming.resume = true;
    const JobOutput<SpillKeySum> resumed = RunSumJob(resuming).ValueOrDie();
    EXPECT_EQ(resumed.output, baseline.output);
  }
  // The restored task's orphaned run file is gone with the namespace.
  EXPECT_EQ(SpillFilesIn(dir), 0u);
}

TEST(PipelineShuffleEquivalence, MetricsRecordGroupPathAndArenaReuse) {
  MetricsRegistry& metrics = MetricsRegistry::Global();

  metrics.Reset();
  DodPipeline(PipelineConfig(StrategyKind::kDmt, ShuffleMode::kColumnar, 1,
                             KernelMode::kAuto, FaultSpec{}))
      .RunOrDie(PipelineData());
  const std::vector<MetricSnapshot> columnar = metrics.Snapshot();
  EXPECT_GT(MetricCount(columnar, "mr.shuffle.columnar_tasks"), 0u);
  EXPECT_EQ(MetricCount(columnar, "mr.shuffle.sorted_tasks"), 0u);
  // Cell-id key spaces are dense; the sparsity guard must never trip here.
  EXPECT_EQ(MetricCount(columnar, "mr.shuffle.fallback.density"), 0u);
  // Shared probe arenas: one build per task serves all its cells.
  const uint64_t arenas = MetricCount(columnar, "kernels.soa_reuse.arenas");
  const uint64_t cells = MetricCount(columnar, "kernels.soa_reuse.cells");
  EXPECT_GT(arenas, 0u);
  EXPECT_GE(cells, arenas);
  EXPECT_EQ(MetricCount(columnar, "kernels.soa_reuse.saved_builds"),
            cells - arenas);

  metrics.Reset();
  DodPipeline(PipelineConfig(StrategyKind::kDmt, ShuffleMode::kSorted, 1,
                             KernelMode::kAuto, FaultSpec{}))
      .RunOrDie(PipelineData());
  const std::vector<MetricSnapshot> sorted = metrics.Snapshot();
  EXPECT_GT(MetricCount(sorted, "mr.shuffle.sorted_tasks"), 0u);
  EXPECT_EQ(MetricCount(sorted, "mr.shuffle.columnar_tasks"), 0u);
}

}  // namespace
}  // namespace dod
