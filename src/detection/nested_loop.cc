// Copyright 2026 The DOD Authors.

#include "detection/nested_loop.h"

#include <algorithm>

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
  // assumption. Only the start offsets are drawn here, all of them up
  // front in local-index order; the permutation came from the arena's
  // salted seed, keeping the two random streams independent.
  Rng rng(params.seed);
  std::vector<uint32_t> starts(num_core);
  for (uint32_t& start : starts) {
    start = static_cast<uint32_t>(rng.NextBounded(n));
  }

  // The queries are then taken in slot order, so each one is read from the
  // probe lanes the sweep streams anyway (no gather through the global
  // data) and its own slot, skipped by position, is simply the sweep
  // index. Support slots (local index >= num_core) only serve as probes.
  // A duplicate coordinate pair is still a genuine neighbor.
  const SoABlock& probes = partition.probes();
  const size_t begin = partition.probe_begin();
  const size_t end = partition.probe_end();
  const int dims = partition.dims();
  const double sq_radius = params.radius * params.radius;
  const int k = params.min_neighbors;
  const KernelOps& ops = GetKernelOps(params.kernels);
  uint64_t distance_evals = 0;
  double p[kMaxDimensions];
  for (size_t slot = begin; slot < end; ++slot) {
    const uint32_t i = probes.IdAt(slot);
    if (i >= num_core) continue;
    for (int d = 0; d < dims; ++d) {
      p[d] = probes.Lane(slot / kSoaWidth, d)[slot % kSoaWidth];
    }
    const size_t start = begin + starts[i];
    // Two sequential sweeps: [start, end) then [begin, start). The kernels
    // stop as soon as k neighbors are confirmed; if neither sweep reaches k
    // the counts are exact, so the verdict matches the per-pair scan.
    int neighbors = ops.count_within_radius(probes, start, end, p, sq_radius,
                                            slot, k, &distance_evals);
    if (neighbors < k) {
      neighbors += ops.count_within_radius(probes, begin, start, p, sq_radius,
                                           slot, k - neighbors,
                                           &distance_evals);
    }
    if (neighbors < k) outliers.push_back(i);
  }
  std::sort(outliers.begin(), outliers.end());
  if (counters != nullptr) {
    counters->Increment("nested_loop.distance_evals", distance_evals);
  }
  return outliers;
}

}  // namespace dod
