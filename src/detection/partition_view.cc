// Copyright 2026 The DOD Authors.

#include "detection/partition_view.h"

#include <new>
#include <numeric>

#include "common/random.h"
#include "kernels/distance_kernels.h"
#include "observability/metrics.h"
#include "observability/trace.h"

namespace dod {
namespace {

// Arena-build accounting: one arena serves every cell of a reduce task, so
// cells - arenas is the number of per-cell SoA builds the shared layout
// saved.
void RecordArenaBuild(size_t cells) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  static const uint32_t kArenas =
      metrics.Id("kernels.soa_reuse.arenas", MetricKind::kCounter);
  static const uint32_t kCells =
      metrics.Id("kernels.soa_reuse.cells", MetricKind::kCounter);
  static const uint32_t kSaved =
      metrics.Id("kernels.soa_reuse.saved_builds", MetricKind::kCounter);
  metrics.Increment(kArenas);
  metrics.Increment(kCells, cells);
  if (cells > 0) metrics.Increment(kSaved, cells - 1);
}

}  // namespace

const SoABlock& PartitionView::probes() const {
  if (!*shadow_filled_) {
    *shadow_filled_ = true;
    if (probes_->takes_shadow()) probes_->FillShadow(probe_begin_, probe_end());
  }
  return *probes_;
}

std::vector<size_t> PartitionView::ProbeSlots() const {
  std::vector<size_t> slots(size_);
  for (size_t slot = probe_begin(); slot < probe_end(); ++slot) {
    slots[probes_->IdAt(slot)] = slot;
  }
  return slots;
}

TaskArena::TaskArena(const Dataset& data, MemoryBudget* budget,
                     KernelMode kernels)
    : data_(data), budget_(budget), probes_(data.dims()) {
  if (GetKernelOps(kernels).reads_shadow) probes_.EnableShadow();
}

Status TaskArena::TryReserve(size_t num_cells, size_t num_points) {
  // Alignment can pad each cell up to a full block (a full shadow vector
  // when the buffer takes shadow lanes).
  const bool shadow = probes_.takes_shadow();
  const size_t slots =
      num_points + num_cells * (shadow ? kShadowWidth : kSoaWidth);
  const uint64_t stage_bytes =
      static_cast<uint64_t>(num_points) * sizeof(PointId) +
      static_cast<uint64_t>(num_cells) * sizeof(CellSlot);
  const uint64_t probe_bytes =
      SoABlock::ReservedBytes(slots, data_.dims(), shadow);
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

void TaskArena::EndCell(size_t num_core) {
  DOD_CHECK(!cells_.empty() && !built_);
  CellSlot& slot = cells_.back();
  slot.size = ids_.size() - slot.ids_begin;
  DOD_CHECK(num_core <= slot.size);
  slot.num_core = num_core;
}

void TaskArena::EndCell(size_t num_core, uint64_t permutation_seed) {
  EndCell(num_core);
  cells_.back().permuted = true;
  cells_.back().permutation_seed = permutation_seed;
}

Status TaskArena::TryBuildProbes() {
  DOD_CHECK(!built_);
  trace::Span span("detect", "arena");
  size_t points = 0;
  try {
    for (CellSlot& slot : cells_) {
      probes_.AlignToBlock();
      slot.probe_begin = probes_.size();
      // Slot ids = local indices, so the ids map each slot back to its
      // point. A permuted segment is Nested-Loop's random probe order,
      // scanned directly.
      std::vector<uint32_t> order;
      if (slot.permuted) {
        Rng rng(slot.permutation_seed);
        order = RandomPermutation(slot.size, rng);
      } else {
        order.resize(slot.size);
        std::iota(order.begin(), order.end(), 0u);
      }
      probes_.AppendGathered(data_, ids_.data() + slot.ids_begin,
                             order.data(), order.size());
      points += slot.size;
    }
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted(
        "task arena probe build failed to allocate (std::bad_alloc)");
  }
  built_ = true;
  span.Arg("cells", static_cast<uint64_t>(cells_.size()))
      .Arg("points", static_cast<uint64_t>(points));
  RecordArenaBuild(cells_.size());
  return Status::Ok();
}

PartitionView TaskArena::View(size_t index) const {
  DOD_CHECK(built_ && index < cells_.size());
  const CellSlot& slot = cells_[index];
  return PartitionView(data_, ids_.data() + slot.ids_begin, slot.size,
                       slot.num_core, &probes_, slot.probe_begin,
                       &slot.shadow_filled);
}

}  // namespace dod
