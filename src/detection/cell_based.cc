// Copyright 2026 The DOD Authors.

#include "detection/cell_based.h"

#include <algorithm>
#include <cmath>

#include "detection/grid.h"
#include "kernels/distance_kernels.h"
#include "kernels/soa_block.h"

namespace dod {
namespace {

struct PruneStats {
  uint64_t grid_cells = 0;
  uint64_t red_cells = 0;
  uint64_t pink_cells = 0;
  uint64_t outlier_cells = 0;
  uint64_t probed_cells = 0;
};

// The three cell prunings. Decided outliers
// land in `outliers`; core points neither pruning could decide land in
// `undecided`, grouped by their candidate cell (the cell loop appends per
// cell). They are then evaluated individually "in a fashion similar to
// Nested-Loop" (Sec. IV-B), which is what the Lemma 4.2 case-3 cost term
// |D|·A(D)·k/(π·r²) models.
void PruneCells(const SparseGrid& grid, size_t num_core, int k, int max_ring,
                std::vector<uint32_t>* undecided,
                std::vector<uint32_t>* outliers, PruneStats* stats) {
  stats->grid_cells = grid.cells().size();
  std::vector<uint32_t> core_members;
  for (const SparseGrid::Cell& cell : grid.cells()) {
    core_members.clear();
    for (uint32_t id : cell.points) {
      if (id < num_core) core_members.push_back(id);
    }
    // Cells holding only support points never need a verdict.
    if (core_members.empty()) continue;

    // Red pruning: > k points in the cell itself; all pairs within r/2.
    if (cell.points.size() > static_cast<size_t>(k)) {
      ++stats->red_cells;
      continue;
    }

    // Pink pruning: > k points in C plus its adjacent layer L1, all within r
    // of any point in C.
    const size_t count_l01 = grid.CountBlock(cell.coord, 1);
    if (count_l01 > static_cast<size_t>(k)) {
      ++stats->pink_cells;
      continue;
    }

    // Quiet-neighborhood pruning: every possible neighbor lives within
    // `max_ring` cells; if that block holds ≤ k points, each core point has
    // at most k-1 neighbors and is an outlier.
    const size_t count_all = grid.CountBlock(cell.coord, max_ring);
    if (count_all <= static_cast<size_t>(k)) {
      ++stats->outlier_cells;
      outliers->insert(outliers->end(), core_members.begin(),
                       core_members.end());
      continue;
    }

    ++stats->probed_cells;
    undecided->insert(undecided->end(), core_members.begin(),
                      core_members.end());
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

  const int dims = partition.dims();
  const int k = params.min_neighbors;
  const double side = CellBasedCellSide(params.radius, dims);
  const int max_ring = CellBasedNeighborRings(dims);

  // Index every point (core and support) into the sparse grid, reading the
  // view in place — one indexed load per point, no partition copy.
  SparseGrid grid(partition.Bounds().min(), side);
  for (uint32_t i = 0; i < partition.size(); ++i) {
    grid.Insert(partition.point(i), i);
  }

  PruneStats stats;
  uint64_t distance_evals = 0;
  std::vector<uint32_t> undecided;
  PruneCells(grid, num_core, k, max_ring, &undecided, &outliers, &stats);

  // Individual evaluation of the undecided points: an exact neighbor count
  // against the whole partition. Unlike Nested-Loop there is no random
  // early exit — the index answered the easy cases already, and this pass
  // computes |N_r(p)| outright. This is what makes Cell-Based lose to
  // Nested-Loop in the intermediate-density window of Fig. 5, where neither
  // pruning fires for most cells yet neighbors are plentiful enough for
  // Nested-Loop to exit quickly. All undecided points probe the view's
  // probe segment; no cap, so the count is exact in every kernel mode.
  if (!undecided.empty()) {
    const SoABlock& probes = partition.probes();
    const size_t begin = partition.probe_begin();
    const size_t end = partition.probe_end();
    const double sq_radius = params.radius * params.radius;
    const KernelOps& ops = GetKernelOps(params.kernels);
    for (uint32_t id : undecided) {
      const int neighbors =
          ops.count_within_radius(probes, begin, end, partition.point(id),
                                  sq_radius, /*skip_id=*/id, /*cap=*/-1,
                                  &distance_evals);
      if (neighbors < k) outliers.push_back(id);
    }
  }

  std::sort(outliers.begin(), outliers.end());
  RecordCellBased(counters, stats, distance_evals);
  return outliers;
}

}  // namespace dod
