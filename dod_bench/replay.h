// Copyright 2026 The DOD Authors.
//
// Outside-in layer timing for the batch pipeline. DodPipeline::Run is one
// call; to see where its time goes without touching src/, the replay calls
// the public function of each module the run goes through, in pipeline
// order, single-threaded, and times each call:
//
//   io.block_store   BlockStore (random block layout)
//   partition.sample Bounds + SampleBlockInto per block
//   core.plan        BuildMultiTacticPlan
//   partition.route  PartitionRouter::RouteCore/RouteSupport into
//                    per-reduce-task buckets (the detection job's map side)
//   mapreduce.group  internal::GroupBucket per reduce task
//   detection.arena  TaskArena staging + TryBuildProbes per reduce task
//   detection.detect Detector::DetectOutliers(view) per cell
//
// Seeds and the record layout mirror core/pipeline.cc, so the replay
// reproduces the run's outlier set exactly (the benchmark checks it) and
// its work counters match the run's.

#ifndef DOD_BENCH_REPLAY_H_
#define DOD_BENCH_REPLAY_H_

#include <cstdint>
#include <vector>

#include "common/dataset.h"
#include "common/status.h"
#include "core/config.h"
#include "mapreduce/counters.h"

namespace dod::bench {

struct ReplayStages {
  double block_store = 0.0;
  double sample = 0.0;
  double plan = 0.0;
  double route = 0.0;
  double group = 0.0;
  double arena = 0.0;
  double detect = 0.0;

  double Total() const {
    return block_store + sample + plan + route + group + arena + detect;
  }
};

struct ReplayResult {
  ReplayStages seconds;
  std::vector<PointId> outliers;  // ascending
  uint64_t distance_evals = 0;
  uint64_t records_shuffled = 0;
  size_t partitions = 0;
};

// Replays the detection job `config` describes on `data`. The plan must use
// supporting areas (every strategy except the Domain baseline).
Result<ReplayResult> ReplayDetection(const Dataset& data,
                                     const DodConfig& config);

// Sum of the detectors' `*.distance_evals` counters.
uint64_t DistanceEvals(const Counters& counters);

}  // namespace dod::bench

#endif  // DOD_BENCH_REPLAY_H_
