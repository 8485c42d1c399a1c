// Copyright 2026 The DOD Authors.
//
// Per-partition cost-model snapshots: what the Sec. IV cost model
// predicted for a partition versus what its detection actually cost. The
// detection reducers record one PartitionProfile per reduced cell; the
// pipeline surfaces them through JobStats, the run report, and the
// --metrics_out dump, making cost-model accuracy a first-class
// measurable.

#ifndef DOD_OBSERVABILITY_PROFILE_H_
#define DOD_OBSERVABILITY_PROFILE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "observability/metrics.h"

namespace dod {

// One reduced partition's predicted-vs-measured snapshot.
struct PartitionProfile {
  uint32_t cell = 0;
  // Reduce task the allocation plan placed the cell on, in
  // [0, num_reduce_tasks).
  int reduce_task = 0;
  // Algorithm the plan assigned ("NestedLoop" | "CellBased").
  std::string algorithm;
  // |D_i|: core points the cell owns, and the replicated support points
  // shipped into its supporting area.
  uint64_t core_points = 0;
  uint64_t support_points = 0;
  // Geometry of the cell and the resulting core-point density.
  double area = 0.0;
  double density = 0.0;
  // Cost the planner's model (Lemma 4.1/4.2) predicted for this cell.
  double predicted_cost = 0.0;
  // What detection actually did: distance evaluations charged to the
  // cell's detector call, and its wall time.
  uint64_t measured_distance_evals = 0;
  double measured_seconds = 0.0;
};

// Collects profiles from concurrently running reduce tasks. Keyed by cell
// and overwriting on re-record, so a retried task attempt (which re-runs
// its groups) leaves exactly one profile per cell — the same idempotence
// the engine's staging commit gives the job output.
class PartitionProfiler {
 public:
  void Record(const PartitionProfile& profile) {
    std::lock_guard<std::mutex> lock(mutex_);
    profiles_[profile.cell] = profile;
  }

  // Copies the profile recorded for `cell` into `*out`; false when the
  // cell has none. The checkpoint hooks use this to persist exactly the
  // profiles a committed reduce task produced.
  bool Get(uint32_t cell, PartitionProfile* out) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = profiles_.find(cell);
    if (it == profiles_.end()) return false;
    *out = it->second;
    return true;
  }

  // All recorded profiles in cell order.
  std::vector<PartitionProfile> Sorted() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<PartitionProfile> out;
    out.reserve(profiles_.size());
    for (const auto& [cell, profile] : profiles_) out.push_back(profile);
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::map<uint32_t, PartitionProfile> profiles_;
};

// The --metrics_out document: a metrics snapshot plus the per-partition
// cost rows, as one JSON object:
//   {"metrics":{...},"partition_profiles":[{...},...]}
std::string ObservabilityReportJson(
    const std::vector<MetricSnapshot>& snapshots,
    const std::vector<PartitionProfile>& profiles);

}  // namespace dod

#endif  // DOD_OBSERVABILITY_PROFILE_H_
