// Copyright 2026 The DOD Authors.

#include "detection/nested_loop.h"

#include "common/random.h"
#include "kernels/distance_kernels.h"
#include "kernels/soa_block.h"

namespace dod {

std::vector<uint32_t> NestedLoopDetector::DetectOutliers(
    const PartitionView& partition, const DetectionParams& params,
    Counters* counters) const {
  const size_t n = partition.size();
  const size_t num_core = partition.num_core();
  std::vector<uint32_t> outliers;
  if (n == 0) return outliers;

  // "Evaluate ... in random order" is realized the way a scan over
  // randomly-stored data does it: the arena laid this cell's points out
  // once in a random permutation (slot ids = local indices), and each
  // probe sequence is a linear sweep of that segment from a per-point
  // random offset. Sequential (cache-friendly) probing, and the shared
  // permutation matches the Lemma 4.1 cost model's independence
  // assumption. Only the start offsets are drawn here; the permutation
  // came from the arena's salted seed, keeping the two random streams
  // independent. Self-matches are skipped by local index (a duplicate
  // coordinate pair is still a genuine neighbor).
  Rng rng(params.seed);
  const SoABlock& probes = partition.probes();
  const size_t begin = partition.probe_begin();
  const size_t end = partition.probe_end();
  const double sq_radius = params.radius * params.radius;
  const int k = params.min_neighbors;
  const KernelOps& ops = GetKernelOps(params.kernels);
  uint64_t distance_evals = 0;
  for (uint32_t i = 0; i < num_core; ++i) {
    const double* p = partition.point(i);
    const size_t start = begin + rng.NextBounded(n);
    // Two sequential sweeps: [start, end) then [begin, start). The kernels
    // stop as soon as k neighbors are confirmed; if neither sweep reaches k
    // the counts are exact, so the verdict matches the per-pair scan.
    int neighbors = ops.count_within_radius(probes, start, end, p, sq_radius,
                                            /*skip_id=*/i, k,
                                            &distance_evals);
    if (neighbors < k) {
      neighbors += ops.count_within_radius(probes, begin, start, p, sq_radius,
                                           /*skip_id=*/i, k - neighbors,
                                           &distance_evals);
    }
    if (neighbors < k) outliers.push_back(i);
  }
  if (counters != nullptr) {
    counters->Increment("nested_loop.distance_evals", distance_evals);
  }
  return outliers;
}

}  // namespace dod
