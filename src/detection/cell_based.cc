// Copyright 2026 The DOD Authors.

#include "detection/cell_based.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "detection/grid.h"
#include "kernels/distance_kernels.h"
#include "kernels/soa_block.h"

namespace dod {
namespace {

// A cell's verdict. Every cell holding a core point gets one of the four
// decided values, once.
enum class Verdict : uint8_t { kUnknown, kRed, kPink, kOutlier, kProbed };

struct PruneStats {
  uint64_t grid_cells = 0;
  uint64_t red_cells = 0;
  uint64_t pink_cells = 0;
  uint64_t outlier_cells = 0;
  uint64_t probed_cells = 0;

  void Record(Verdict verdict) {
    switch (verdict) {
      case Verdict::kRed:
        ++red_cells;
        break;
      case Verdict::kPink:
        ++pink_cells;
        break;
      case Verdict::kOutlier:
        ++outlier_cells;
        break;
      case Verdict::kProbed:
        ++probed_cells;
        break;
      case Verdict::kUnknown:
        break;
    }
  }
};

// The three cell prunings, for a cell holding core points and `own` points
// in all; `count_block(ring)` counts the points of the (2·ring+1)^d block
// centered on it. Both indexes decide through here.
template <typename CountBlockFn>
Verdict DecideCell(size_t own, int k, int max_ring,
                   CountBlockFn&& count_block) {
  const size_t limit = static_cast<size_t>(k);
  // Red pruning: > k points in the cell itself; all pairs within r/2.
  if (own > limit) return Verdict::kRed;
  // Pink pruning: > k points in C plus its adjacent layer L1, all within r
  // of any point in C.
  if (count_block(1) > limit) return Verdict::kPink;
  // Quiet-neighborhood pruning: every possible neighbor lives within
  // `max_ring` cells; if that block holds ≤ k points, each core point has
  // at most k-1 neighbors and is an outlier.
  if (count_block(max_ring) <= limit) return Verdict::kOutlier;
  return Verdict::kProbed;
}

// Hands a decided point to its list: outliers land in `outliers`, points
// no pruning could decide in `undecided`.
void Collect(Verdict verdict, uint32_t id, std::vector<uint32_t>* undecided,
             std::vector<uint32_t>* outliers) {
  if (verdict == Verdict::kOutlier) outliers->push_back(id);
  if (verdict == Verdict::kProbed) undecided->push_back(id);
}

// Dense path: the summed-area table over the view's box, built from the
// probe lanes. Walks the core points and decides each one's cell on first
// sight. False, with nothing decided, when the table refuses the box.
bool PruneWithTable(const PartitionView& partition, const Rect& box,
                    double side, int k, int max_ring,
                    std::vector<uint32_t>* undecided,
                    std::vector<uint32_t>* outliers, PruneStats* stats) {
  // The double lanes only: the leftover pass fills the shadow lanes, if
  // any point reaches it.
  const CellCountTable table(partition.probe_lanes(), partition.probe_begin(),
                             partition.probe_end(), box, side);
  if (!table.ok()) return false;
  stats->grid_cells = table.num_cells();
  std::vector<Verdict> verdicts(table.num_entries(), Verdict::kUnknown);
  const auto num_core = static_cast<uint32_t>(partition.num_core());
  for (uint32_t id = 0; id < num_core; ++id) {
    const uint32_t cell = table.CellOf(id);
    Verdict& verdict = verdicts[cell];
    if (verdict == Verdict::kUnknown) {
      verdict = DecideCell(table.CountBlock(cell, 0), k, max_ring,
                           [&](int ring) {
                             return table.CountBlock(cell, ring);
                           });
      stats->Record(verdict);
    }
    Collect(verdict, id, undecided, outliers);
  }
  return true;
}

// Hashed path: the sparse grid, walked cell by cell, grouping the
// undecided points by cell (in first-point order).
void PruneWithGrid(const PartitionView& partition, const Point& origin,
                   double side, int k, int max_ring,
                   std::vector<uint32_t>* undecided,
                   std::vector<uint32_t>* outliers, PruneStats* stats) {
  // Index every point (core and support) reading the view in place, one
  // indexed load per point, prefetched ahead since the ids are scattered.
  const size_t size = partition.size();
  const SparseGrid grid(origin, side, static_cast<uint32_t>(size),
                        [&](uint32_t i) {
                          if (i + kPrefetchLookahead < size) {
                            partition.Prefetch(i + kPrefetchLookahead);
                          }
                          return partition.point(i);
                        });
  if (!grid.fits()) {
    // The view spans more cells than an int32 key can address without
    // aliasing: no cell pruning, every core point is counted exactly.
    undecided->resize(partition.num_core());
    std::iota(undecided->begin(), undecided->end(), 0u);
    return;
  }
  stats->grid_cells = grid.cells().size();
  std::vector<uint32_t> core_members;
  for (const SparseGrid::Cell& cell : grid.cells()) {
    core_members.clear();
    for (uint32_t id : cell.points) {
      if (id < partition.num_core()) core_members.push_back(id);
    }
    // Cells holding only support points never need a verdict.
    if (core_members.empty()) continue;
    const Verdict verdict =
        DecideCell(cell.points.size(), k, max_ring, [&](int ring) {
          return grid.CountBlock(cell.coord, ring);
        });
    stats->Record(verdict);
    for (uint32_t id : core_members) Collect(verdict, id, undecided, outliers);
  }
}

void RecordCellBased(Counters* counters, const PruneStats& stats,
                     uint64_t distance_evals) {
  if (counters != nullptr) {
    counters->Increment("cell_based.cells", stats.grid_cells);
    counters->Increment("cell_based.red_cells", stats.red_cells);
    counters->Increment("cell_based.pink_cells", stats.pink_cells);
    counters->Increment("cell_based.outlier_cells", stats.outlier_cells);
    counters->Increment("cell_based.probed_cells", stats.probed_cells);
    counters->Increment("cell_based.distance_evals", distance_evals);
  }
}

}  // namespace

double CellBasedCellSide(double radius, int dims) {
  return radius / (2.0 * std::sqrt(static_cast<double>(dims)));
}

int CellBasedNeighborRings(int dims) {
  return static_cast<int>(std::floor(2.0 * std::sqrt(dims))) + 1;
}

std::vector<uint32_t> CellBasedDetector::DetectOutliers(
    const PartitionView& partition, const DetectionParams& params,
    Counters* counters) const {
  const size_t num_core = partition.num_core();
  std::vector<uint32_t> outliers;
  if (num_core == 0) return outliers;

  const int k = params.min_neighbors;
  const double side = CellBasedCellSide(params.radius, partition.dims());
  const int max_ring = CellBasedNeighborRings(partition.dims());

  // Core points the prunings decided land in `outliers` or stay out as
  // inliers; the rest land in `undecided`. They are then evaluated
  // individually "in a fashion similar to Nested-Loop" (Sec. IV-B), which
  // is what the Lemma 4.2 case-3 cost term |D|·A(D)·k/(π·r²) models.
  const Rect box = partition.probe_lanes().Bounds(partition.probe_begin(),
                                                  partition.probe_end());
  PruneStats stats;
  std::vector<uint32_t> undecided;
  if (index_ == Index::kHashed ||
      !PruneWithTable(partition, box, side, k, max_ring, &undecided,
                      &outliers, &stats)) {
    PruneWithGrid(partition, box.min(), side, k, max_ring, &undecided,
                  &outliers, &stats);
  }

  // Individual evaluation of the undecided points: an exact neighbor count
  // against the whole partition. Unlike Nested-Loop there is no random
  // early exit — the index answered the easy cases already, and this pass
  // computes |N_r(p)| outright. This is what makes Cell-Based lose to
  // Nested-Loop in the intermediate-density window of Fig. 5, where neither
  // pruning fires for most cells yet neighbors are plentiful enough for
  // Nested-Loop to exit quickly. All undecided points probe the view's
  // probe segment; no cap, so the count is exact in every kernel mode.
  uint64_t distance_evals = 0;
  if (!undecided.empty()) {
    const SoABlock& probes = partition.probes();
    const size_t begin = partition.probe_begin();
    const size_t end = partition.probe_end();
    const double sq_radius = params.radius * params.radius;
    const KernelOps& ops = GetKernelOps(params.kernels);
    const std::vector<size_t> slots = partition.ProbeSlots();
    for (uint32_t id : undecided) {
      const int neighbors =
          ops.count_within_radius(probes, begin, end, partition.point(id),
                                  sq_radius, slots[id], /*cap=*/-1,
                                  &distance_evals);
      if (neighbors < k) outliers.push_back(id);
    }
  }

  std::sort(outliers.begin(), outliers.end());
  RecordCellBased(counters, stats, distance_evals);
  return outliers;
}

}  // namespace dod
