// Copyright 2026 The DOD Authors.

#include "replay.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "common/random.h"
#include "common/timer.h"
#include "core/plan.h"
#include "detection/detector.h"
#include "detection/partition_view.h"
#include "io/block_store.h"
#include "mapreduce/shuffle.h"
#include "partition/partition_plan.h"
#include "partition/sampler.h"

namespace dod::bench {
namespace {

// These four mirror core/pipeline.cc: the block-layout seed, the support
// tag bit of a shuffled point reference, and the per-cell probe-order
// seeds. Verdicts do not depend on them; matching them makes the replay's
// work counters equal the run's.
constexpr uint64_t kBlockSeedSalt = 0xB10C;
constexpr uint32_t kSupportFlag = 0x80000000u;
constexpr uint64_t kArenaSeedSalt = 0xA5C3D2E1F0B49687ULL;
uint64_t CellSeed(uint64_t base, uint32_t cell) {
  return base ^ (0x9E3779B97F4A7C15ULL * (cell + 1));
}

using Record = std::pair<uint32_t, uint32_t>;  // (cell, tagged point id)

}  // namespace

uint64_t DistanceEvals(const Counters& counters) {
  const std::string suffix = ".distance_evals";
  uint64_t total = 0;
  for (const auto& [name, value] : counters.values()) {
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += value;
    }
  }
  return total;
}

Result<ReplayResult> ReplayDetection(const Dataset& data,
                                     const DodConfig& config) {
  if (config.strategy != StrategyKind::kDmt) {
    return Status::InvalidArgument("ReplayDetection: DMT configurations only");
  }
  ReplayResult result;
  StopWatch watch;
  const BlockStore store(data, config.num_blocks, config.seed ^ kBlockSeedSalt);
  result.seconds.block_store = watch.ElapsedSeconds();

  watch.Restart();
  const double rate = EffectiveSamplingRate(config.sampler, data.size());
  DistributionSketch sketch{
      MiniBucketGrid(data.Bounds(),
                     EffectiveBucketsPerDim(config.sampler, data.size())),
      rate, 0};
  Rng sample_rng(config.sampler.seed ^ config.seed);
  for (size_t b = 0; b < store.num_blocks(); ++b) {
    sketch.sample_size +=
        SampleBlockInto(data, store.block(b), rate, sample_rng, &sketch.grid);
  }
  result.seconds.sample = watch.ElapsedSeconds();

  watch.Restart();
  const MultiTacticPlan plan = BuildMultiTacticPlan(sketch, config);
  result.seconds.plan = watch.ElapsedSeconds();
  result.partitions = plan.partition_plan.num_cells();

  // Map side: every point to its core cell and its supporting cells, into
  // the bucket of the reduce task the allocation plan assigns the cell.
  watch.Restart();
  const PartitionRouter router(plan.partition_plan);
  std::vector<std::vector<Record>> buckets(
      static_cast<size_t>(config.num_reduce_tasks));
  std::vector<uint32_t> support;
  for (size_t b = 0; b < store.num_blocks(); ++b) {
    for (PointId id : store.block(b)) {
      const double* p = data[id];
      const uint32_t core = router.RouteCore(p);
      buckets[static_cast<size_t>(plan.allocation[core])].emplace_back(core,
                                                                        id);
      support.clear();
      router.RouteSupport(p, &support);
      for (uint32_t cell : support) {
        buckets[static_cast<size_t>(plan.allocation[cell])].emplace_back(
            cell, id | kSupportFlag);
      }
    }
  }
  result.seconds.route = watch.ElapsedSeconds();

  std::unique_ptr<Detector> detectors[3];
  for (size_t kind = 0; kind < 3; ++kind) {
    detectors[kind] = MakeDetector(static_cast<AlgorithmKind>(kind));
  }
  Counters counters;
  for (std::vector<Record>& bucket : buckets) {
    result.records_shuffled += bucket.size();
    watch.Restart();
    internal::GroupScratch<uint32_t, uint32_t> scratch;
    internal::GroupPath path = internal::GroupPath::kColumnar;
    const GroupedView<uint32_t, uint32_t> groups =
        internal::GroupBucket(bucket, config.shuffle, &scratch, &path);
    result.seconds.group += watch.ElapsedSeconds();

    // Core points first, then support points, as the detection reducer
    // stages them.
    watch.Restart();
    TaskArena arena(data);
    DOD_RETURN_IF_ERROR(
        arena.TryReserve(groups.num_groups(), groups.num_records()));
    for (size_t g = 0; g < groups.num_groups(); ++g) {
      arena.BeginCell();
      size_t num_core = 0;
      for (size_t i = 0; i < groups.size(g); ++i) {
        if ((groups.value(g, i) & kSupportFlag) == 0) {
          arena.AddPoint(groups.value(g, i));
          ++num_core;
        }
      }
      for (size_t i = 0; i < groups.size(g); ++i) {
        if ((groups.value(g, i) & kSupportFlag) != 0) {
          arena.AddPoint(groups.value(g, i) & ~kSupportFlag);
        }
      }
      arena.EndCell(num_core,
                    CellSeed(config.params.seed, groups.key(g)) ^
                        kArenaSeedSalt);
    }
    DOD_RETURN_IF_ERROR(arena.TryBuildProbes());
    result.seconds.arena += watch.ElapsedSeconds();

    watch.Restart();
    for (size_t g = 0; g < groups.num_groups(); ++g) {
      const PartitionView view = arena.View(g);
      if (view.num_core() == 0) continue;
      const uint32_t cell = groups.key(g);
      DetectionParams params = config.params;
      params.seed = CellSeed(config.params.seed, cell);
      const Detector& detector =
          *detectors[static_cast<size_t>(plan.algorithm_plan[cell])];
      for (uint32_t index : detector.DetectOutliers(view, params, &counters)) {
        result.outliers.push_back(view.id(index));
      }
    }
    result.seconds.detect += watch.ElapsedSeconds();
  }
  std::sort(result.outliers.begin(), result.outliers.end());
  result.distance_evals = DistanceEvals(counters);
  return result;
}

}  // namespace dod::bench
