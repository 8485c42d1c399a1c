// Copyright 2026 The DOD Authors.

#include "detection/partition_view.h"

#include <new>

#include "common/random.h"
#include "observability/metrics.h"
#include "observability/trace.h"

namespace dod {
namespace {

// Arena-build accounting: one arena serves every cell of a reduce task, so
// cells - arenas is the number of per-cell SoA builds the shared layout
// saved. `points` counts slots laid out (replicas included).
void RecordArenaBuild(size_t cells, size_t points) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  static const uint32_t kArenas =
      metrics.Id("kernels.soa_reuse.arenas", MetricKind::kCounter);
  static const uint32_t kCells =
      metrics.Id("kernels.soa_reuse.cells", MetricKind::kCounter);
  static const uint32_t kPoints =
      metrics.Id("kernels.soa_reuse.points", MetricKind::kCounter);
  static const uint32_t kSaved =
      metrics.Id("kernels.soa_reuse.saved_builds", MetricKind::kCounter);
  metrics.Increment(kArenas);
  metrics.Increment(kCells, cells);
  metrics.Increment(kPoints, points);
  if (cells > 0) metrics.Increment(kSaved, cells - 1);
}

}  // namespace

Rect PartitionView::Bounds() const {
  DOD_CHECK(!empty());
  BoundsAccumulator accumulator(dims());
  for (size_t i = 0; i < size_; ++i) accumulator.Add(point(i));
  return accumulator.bounds();
}

TaskArena::TaskArena(const Dataset& data, MemoryBudget* budget)
    : data_(data), budget_(budget), probes_(data.dims()) {}

Status TaskArena::TryReserve(size_t num_cells, size_t num_points) {
  // Block alignment can pad each cell up to a full block.
  const size_t slots = num_points + num_cells * kSoaWidth;
  const uint64_t stage_bytes =
      static_cast<uint64_t>(num_points) * sizeof(PointId) +
      static_cast<uint64_t>(num_cells) * sizeof(CellSlot);
  const uint64_t probe_bytes =
      static_cast<uint64_t>(slots) *
      (static_cast<uint64_t>(data_.dims()) * sizeof(double) +
       sizeof(uint32_t));
  DOD_RETURN_IF_ERROR(
      stage_charge_.Acquire(budget_, stage_bytes, "task arena id staging"));
  DOD_RETURN_IF_ERROR(
      probe_charge_.Acquire(budget_, probe_bytes, "task arena probe buffer"));
  try {
    cells_.reserve(num_cells);
    ids_.reserve(num_points);
    probes_.Reserve(slots);
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted(
        "task arena reservation for " + std::to_string(num_points) +
        " points across " + std::to_string(num_cells) +
        " cells failed to allocate (std::bad_alloc)");
  }
  return Status::Ok();
}

void TaskArena::BeginCell() {
  DOD_CHECK(!built_);
  CellSlot slot;
  slot.ids_begin = ids_.size();
  cells_.push_back(slot);
}

void TaskArena::EndCell(size_t num_core, uint64_t permutation_seed) {
  DOD_CHECK(!cells_.empty() && !built_);
  CellSlot& slot = cells_.back();
  slot.size = ids_.size() - slot.ids_begin;
  DOD_CHECK(num_core <= slot.size);
  slot.num_core = num_core;
  slot.permutation_seed = permutation_seed;
}

Status TaskArena::TryBuildProbes() {
  DOD_CHECK(!built_);
  trace::Span span("detect", "arena");
  size_t points = 0;
  try {
    for (CellSlot& slot : cells_) {
      probes_.AlignToBlock();
      slot.probe_begin = probes_.size();
      // Permuted segment, slot ids = local indices: Nested-Loop scans it
      // directly as its random probe order, and kernels skip the query
      // point by its local index.
      Rng rng(slot.permutation_seed);
      const std::vector<uint32_t> order = RandomPermutation(slot.size, rng);
      const PointId* cell_ids = ids_.data() + slot.ids_begin;
      for (uint32_t local : order) {
        probes_.Append(data_[cell_ids[local]], local);
      }
      points += slot.size;
    }
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted(
        "task arena probe build failed to allocate (std::bad_alloc)");
  }
  built_ = true;
  span.Arg("cells", static_cast<uint64_t>(cells_.size()))
      .Arg("points", static_cast<uint64_t>(points));
  RecordArenaBuild(cells_.size(), points);
  return Status::Ok();
}

PartitionView TaskArena::View(size_t index) const {
  DOD_CHECK(built_ && index < cells_.size());
  const CellSlot& slot = cells_[index];
  return PartitionView(data_, ids_.data() + slot.ids_begin, slot.size,
                       slot.num_core, probes_, slot.probe_begin);
}

}  // namespace dod
