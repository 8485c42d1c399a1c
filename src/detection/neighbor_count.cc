// Copyright 2026 The DOD Authors.

#include "detection/neighbor_count.h"

#include "kernels/distance_kernels.h"

namespace dod {

NeighborCountSummary CountNeighbors(const PartitionView& view, size_t local,
                                    const DetectionParams& params, int cap,
                                    uint64_t* pairs) {
  const double sq_radius = params.radius * params.radius;
  const double* q = view.point(local);
  const int raw = GetKernelOps(params.kernels).count_within_radius(
      view.probes(), view.probe_begin(), view.probe_end(), q, sq_radius,
      static_cast<uint32_t>(local), cap, pairs);
  // Clamp at the cap: batched kernels may overshoot by a block, so the
  // stored summary must not depend on how far they ran.
  if (cap >= 0 && raw >= cap) {
    return NeighborCountSummary{static_cast<uint32_t>(cap), true};
  }
  return NeighborCountSummary{static_cast<uint32_t>(raw), false};
}

void CountBlockAgainstSegment(const SoABlock& points, size_t begin, size_t end,
                              const double* queries, size_t num_queries,
                              double sq_radius, KernelMode kernels,
                              uint32_t* counts, uint64_t* pairs) {
  if (num_queries == 0 || begin >= end) return;
  GetKernelOps(kernels).count_block_within_radius(
      points, begin, end, queries, num_queries, sq_radius, counts, pairs);
}

}  // namespace dod
