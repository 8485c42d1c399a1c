// Copyright 2026 The DOD Authors.
//
// Non-templated measurement results shared by all MapReduce jobs.

#ifndef DOD_MAPREDUCE_JOB_STATS_H_
#define DOD_MAPREDUCE_JOB_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "durability/payload.h"
#include "mapreduce/counters.h"
#include "observability/profile.h"

namespace dod {

// Per-stage simulated durations of one job, in seconds.
struct StageTimes {
  double map_seconds = 0.0;
  double shuffle_seconds = 0.0;
  double reduce_seconds = 0.0;

  double total() const { return map_seconds + shuffle_seconds + reduce_seconds; }

  StageTimes& operator+=(const StageTimes& other) {
    map_seconds += other.map_seconds;
    shuffle_seconds += other.shuffle_seconds;
    reduce_seconds += other.reduce_seconds;
    return *this;
  }
};

// One job's measurement results. The engine builds a JobStats *delta* per
// task and folds the deltas into the job's totals with MergeFrom, which is
// associative and order-independent (sums for counts and durations, max
// for gauges, concatenation for the per-slot cost vectors) — the property
// that lets tasks complete in any scheduling order while the committed
// totals stay identical.
struct JobStats {
  // Measured per-task durations (seconds).
  std::vector<double> map_task_seconds;
  std::vector<double> reduce_task_seconds;

  // Data-flow accounting.
  uint64_t records_mapped = 0;
  uint64_t records_shuffled = 0;
  uint64_t bytes_shuffled = 0;
  uint64_t groups_reduced = 0;

  // Simulated stage durations on the configured cluster.
  StageTimes stage_times;

  // Fault-tolerance accounting (see mapreduce/task_runner.h). All zero on a
  // fault-free run with no user-level task errors.
  uint64_t task_attempts = 0;       // attempts executed
  uint64_t task_failures = 0;       // attempts that failed
  uint64_t task_retries = 0;        // re-executions after a failure
  uint64_t shuffle_records_dropped = 0;    // injected transport loss
  uint64_t shuffle_records_corrupted = 0;  // injected corruption

  // Real single-machine wall time spent executing the job, reported next
  // to the simulated makespan above: `stage_times` is what the modeled
  // cluster would take, `wall_seconds` is what this machine actually took.
  double wall_seconds = 0.0;
  // Measured wall time of the parallel map / reduce phases alone.
  double map_wall_seconds = 0.0;
  double reduce_wall_seconds = 0.0;
  // Worker threads the runtime executed tasks on (1 = sequential).
  int threads_used = 1;

  Counters counters;

  // Per-partition cost-model snapshots recorded by the reduce side of a
  // detection job (empty for jobs that don't profile partitions). Sorted
  // by cell id; concatenated by MergeFrom like the per-slot cost vectors.
  std::vector<PartitionProfile> partition_profiles;

  // Folds another JobStats in: counts and durations add, gauges
  // (wall times, thread count) take the max, per-slot
  // cost vectors concatenate, counters merge. Associative and commutative
  // up to vector ordering, so per-task deltas may be merged in any order
  // without changing any total.
  void MergeFrom(const JobStats& other);

  // One-line summary for logs/benches.
  std::string ToString() const;
};

// Checkpoint codec for a per-task JobStats *delta* (the accounting one
// task contributes before the engine's MergeFrom). Only the fields a task
// delta actually carries are serialized: the data-flow and fault-tolerance
// counts and the counters map. Global/gauge fields (stage times, wall
// clocks, threads, per-slot vectors, partition profiles) are derived or
// restored through other channels and are left at their defaults by
// Deserialize.
void SerializeJobStatsDelta(const JobStats& stats, PayloadWriter* out);
Status DeserializeJobStatsDelta(PayloadReader* in, JobStats* stats);

}  // namespace dod

#endif  // DOD_MAPREDUCE_JOB_STATS_H_
