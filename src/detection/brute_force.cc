// Copyright 2026 The DOD Authors.

#include "detection/brute_force.h"

#include "common/distance.h"

namespace dod {

std::vector<uint32_t> BruteForceDetector::DetectOutliers(
    const PartitionView& partition, const DetectionParams& params,
    Counters* counters) const {
  std::vector<uint32_t> outliers;
  const int dims = partition.dims();
  const size_t n = partition.size();
  const double sq_radius = params.radius * params.radius;
  uint64_t distance_evals = 0;
  for (uint32_t i = 0; i < partition.num_core(); ++i) {
    const double* p = partition.point(i);
    int neighbors = 0;
    for (uint32_t j = 0; j < n; ++j) {
      if (j == i) continue;
      ++distance_evals;
      if (WithinSquaredDistance(p, partition.point(j), dims, sq_radius)) {
        if (++neighbors >= params.min_neighbors) break;
      }
    }
    if (neighbors < params.min_neighbors) outliers.push_back(i);
  }
  if (counters != nullptr) {
    counters->Increment("brute_force.distance_evals", distance_evals);
  }
  return outliers;
}

}  // namespace dod
