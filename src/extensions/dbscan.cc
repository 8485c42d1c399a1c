// Copyright 2026 The DOD Authors.

#include "extensions/dbscan.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "common/union_find.h"
#include "detection/grid.h"
#include "kernels/distance_kernels.h"
#include "kernels/soa_block.h"
#include "partition/partition_plan.h"
#include "partition/strategies.h"

namespace dod {
namespace {

// Neighbor lists via a sparse grid with cell side eps: all neighbors of a
// point lie within the 3^d block around its cell. Each cell's members are
// mirrored into a blocked SoA buffer at build time, so a range query is one
// RangeMask kernel call per non-empty cell of the block; eps² is hoisted
// once. Data too wide for the grid to key without aliasing is scanned as
// one cell.
class EpsIndex {
 public:
  EpsIndex(const Dataset& points, double eps, KernelMode kernels)
      : points_(points),
        sq_eps_(eps * eps),
        ops_(GetKernelOps(kernels)),
        grid_(points.Bounds().min(), eps, static_cast<uint32_t>(points.size()),
              [&](uint32_t i) { return points[i]; }) {
    if (!grid_.fits()) {
      cell_soa_.emplace_back(points.dims()).Assign(points);
      return;
    }
    cell_soa_.reserve(grid_.cells().size());
    for (const SparseGrid::Cell& cell : grid_.cells()) {
      SoABlock& soa = cell_soa_.emplace_back(points.dims());
      soa.Reserve(cell.points.size());
      for (uint32_t j : cell.points) soa.Append(points_[j], j);
    }
  }

  // Appends the ids within eps of point `i` (excluding `i`) to `out`, in
  // cell order then member order — the order the scalar scan produced.
  void Neighbors(uint32_t i, std::vector<uint32_t>* out) const {
    const double* p = points_[i];
    if (!grid_.fits()) {
      ops_.range_mask(cell_soa_.front(), p, sq_eps_, /*skip_id=*/i, out,
                      nullptr);
      return;
    }
    grid_.ForEachCellInBlock(
        grid_.CoordOf(p), 0, 1, [&](const SparseGrid::Cell& cell) {
          const size_t index =
              static_cast<size_t>(&cell - grid_.cells().data());
          ops_.range_mask(cell_soa_[index], p, sq_eps_, /*skip_id=*/i, out,
                          nullptr);
        });
  }

 private:
  const Dataset& points_;
  double sq_eps_;
  const KernelOps& ops_;
  const SparseGrid grid_;
  std::vector<SoABlock> cell_soa_;
};

}  // namespace

std::vector<int32_t> DbscanLabels(const Dataset& data,
                                  const DbscanParams& params) {
  const size_t n = data.size();
  std::vector<int32_t> labels(n, kDbscanNoise);
  if (n == 0) return labels;
  DOD_CHECK(params.eps > 0.0);
  DOD_CHECK(params.min_pts >= 1);

  const EpsIndex index(data, params.eps, params.kernels);
  std::vector<std::vector<uint32_t>> neighbor_cache(n);
  std::vector<bool> is_core(n, false);
  for (uint32_t i = 0; i < n; ++i) {
    index.Neighbors(i, &neighbor_cache[i]);
    // min_pts counts the point itself.
    is_core[i] =
        neighbor_cache[i].size() + 1 >= static_cast<size_t>(params.min_pts);
  }

  int32_t next_cluster = 0;
  std::deque<uint32_t> frontier;
  for (uint32_t seed = 0; seed < n; ++seed) {
    if (!is_core[seed] || labels[seed] != kDbscanNoise) continue;
    const int32_t cluster = next_cluster++;
    labels[seed] = cluster;
    frontier.assign(1, seed);
    while (!frontier.empty()) {
      const uint32_t p = frontier.front();
      frontier.pop_front();
      for (uint32_t q : neighbor_cache[p]) {
        if (labels[q] != kDbscanNoise) continue;
        labels[q] = cluster;
        if (is_core[q]) frontier.push_back(q);
      }
    }
  }
  return labels;
}

DistributedDbscanResult DistributedDbscan(
    const Dataset& data, const DbscanParams& params,
    const DistributedDbscanOptions& options) {
  DistributedDbscanResult result;
  const size_t n = data.size();
  result.labels.assign(n, kDbscanNoise);
  if (n == 0) return result;
  DOD_CHECK(params.eps > 0.0);
  DOD_CHECK(params.min_pts >= 1);

  // Map side: equi-width cells with eps supporting areas (Def. 3.3), so
  // each partition sees every point within eps of its core points.
  const Rect domain = data.Bounds();
  const PartitionPlan plan(
      domain, params.eps,
      EquiWidthCells(domain, std::max<size_t>(1, options.target_partitions)));
  const PartitionRouter router(plan);
  const size_t m = plan.num_cells();
  std::vector<std::vector<PointId>> core(m), support(m);
  std::vector<uint32_t> cells;
  for (PointId i = 0; i < n; ++i) {
    cells.clear();
    core[router.Route(data[i], &cells)].push_back(i);
    for (uint32_t c : cells) support[c].push_back(i);
  }

  // Phase A (reduce side, pass 1): each home partition decides coreness of
  // its core points exactly — their full eps-ball is present.
  std::vector<bool> is_core(n, false);
  std::vector<std::vector<PointId>> members(m);
  for (size_t c = 0; c < m; ++c) {
    members[c] = core[c];
    members[c].insert(members[c].end(), support[c].begin(),
                      support[c].end());
    if (core[c].empty()) continue;
    Dataset part(data.dims());
    part.Reserve(members[c].size());
    for (PointId id : members[c]) part.Append(data[id]);
    const EpsIndex index(part, params.eps, params.kernels);
    std::vector<uint32_t> neighbors;
    for (size_t i = 0; i < core[c].size(); ++i) {
      neighbors.clear();
      index.Neighbors(static_cast<uint32_t>(i), &neighbors);
      if (neighbors.size() + 1 >= static_cast<size_t>(params.min_pts)) {
        is_core[core[c][i]] = true;
      }
    }
  }

  // Phase B (reduce side, pass 2): local clustering per partition —
  // BFS expansion only through globally core points. Local cluster ids are
  // globalized with a running counter; each point's final cluster comes
  // from its home partition, and support occurrences of core points yield
  // merge edges between local clusterings.
  std::vector<int32_t> home_label(n, kDbscanNoise);
  std::vector<std::pair<int32_t, int32_t>> edges;  // (home label, foreign)
  std::vector<std::pair<PointId, int32_t>> pending_foreign;
  int32_t next_label = 0;
  for (size_t c = 0; c < m; ++c) {
    if (members[c].empty()) continue;
    Dataset part(data.dims());
    part.Reserve(members[c].size());
    for (PointId id : members[c]) part.Append(data[id]);
    const EpsIndex index(part, params.eps, params.kernels);

    const size_t local_n = members[c].size();
    std::vector<int32_t> local(local_n, kDbscanNoise);
    std::deque<uint32_t> frontier;
    std::vector<uint32_t> neighbors;
    for (uint32_t seed = 0; seed < local_n; ++seed) {
      if (local[seed] != kDbscanNoise || !is_core[members[c][seed]]) continue;
      const int32_t cluster = next_label++;
      local[seed] = cluster;
      frontier.assign(1, seed);
      while (!frontier.empty()) {
        const uint32_t p = frontier.front();
        frontier.pop_front();
        neighbors.clear();
        index.Neighbors(p, &neighbors);
        for (uint32_t q : neighbors) {
          if (local[q] != kDbscanNoise) continue;
          local[q] = cluster;
          if (is_core[members[c][q]]) frontier.push_back(q);
        }
      }
    }

    // Home labels for core points of this partition; merge edges for
    // labeled support occurrences of globally-core points.
    for (uint32_t i = 0; i < local_n; ++i) {
      const PointId id = members[c][i];
      if (i < core[c].size()) {
        home_label[id] = local[i];
      } else if (local[i] != kDbscanNoise && is_core[id]) {
        pending_foreign.emplace_back(id, local[i]);
      }
    }
  }
  for (const auto& [id, foreign] : pending_foreign) {
    // A globally core point is always labeled at home.
    DOD_CHECK(home_label[id] != kDbscanNoise);
    edges.emplace_back(home_label[id], foreign);
  }

  // Merge: union the local clusterings, then compact final labels in order
  // of first appearance over ascending point ids (determinism).
  UnionFind forest(static_cast<size_t>(next_label));
  for (const auto& [a, b] : edges) {
    forest.Union(static_cast<size_t>(a), static_cast<size_t>(b));
  }
  result.merges = edges.size();
  std::unordered_map<size_t, int32_t> compact;
  for (PointId i = 0; i < n; ++i) {
    if (home_label[i] == kDbscanNoise) continue;
    const size_t root = forest.Find(static_cast<size_t>(home_label[i]));
    auto [it, inserted] =
        compact.try_emplace(root, static_cast<int32_t>(compact.size()));
    result.labels[i] = it->second;
  }
  result.num_clusters = static_cast<int32_t>(compact.size());
  return result;
}

}  // namespace dod
