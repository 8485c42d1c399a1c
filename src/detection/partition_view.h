// Copyright 2026 The DOD Authors.
//
// Zero-copy partition views and the per-task probe arena — the one input
// form every detector takes.
//
// A partition (Def. 3.3: a cell's core points followed by its supporting
// area) is never materialized as a Dataset. A PartitionView is a span of
// PointIds over the global dataset: AoS coordinate reads resolve through
// one indexed load, and the core-points-first local ordering the detectors
// expect is encoded in the id order. Every view is built by a TaskArena,
// which also lays out one blocked SoA buffer holding every staged cell's
// probe segment back to back (each segment block-aligned, pre-permuted,
// slot ids = local indices), so the kernels scan exactly
// [probe_begin, probe_begin + size) of the shared buffer and one arena
// build serves every cell of a reduce task (or a streaming round).
//
// Lifetime: a TaskArena lives on the stack of one reduce-task attempt
// (reducer instances are shared across concurrent tasks and must stay
// stateless). Views returned by View() borrow the arena's id and probe
// storage and must not outlive it; the global dataset outlives everything.

#ifndef DOD_DETECTION_PARTITION_VIEW_H_
#define DOD_DETECTION_PARTITION_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bounds.h"
#include "common/dataset.h"
#include "common/point.h"
#include "durability/memory_budget.h"
#include "kernels/soa_block.h"

namespace dod {

// Per-cell deterministic seed for the detectors' randomized probe order.
// `cell` is any stable cell token (a plan cell id, a hashed grid coord).
inline uint64_t CellSeed(uint64_t base, uint64_t cell) {
  return base ^ (0x9E3779B97F4A7C15ULL * (cell + 1));
}

// The arena draws each cell's probe-segment permutation from a stream
// salted with this constant: the detector draws its start offsets from the
// unsalted cell seed, and starts drawn from the same stream that produced
// the permutation would correlate with the slot order they index into.
inline constexpr uint64_t kArenaSeedSalt = 0xA5C3D2E1F0B49687ULL;

// A read-only view of one staged cell: `size()` points, the first
// `num_core()` of which are core points. Local index i resolves to the
// global point id(i).
class PartitionView {
 public:
  int dims() const { return data_->dims(); }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t num_core() const { return num_core_; }

  // Global id of local point i.
  PointId id(size_t i) const { return ids_[i]; }

  // Coordinates of local point i (one indexed load into the global data).
  const double* point(size_t i) const { return (*data_)[ids_[i]]; }

  // Bounding box of the viewed points. Must not be called on an empty view.
  Rect Bounds() const;

  // Probe segment: slots [probe_begin, probe_end) of `probes()` hold this
  // view's points in a permuted order, each slot carrying its point's
  // *local* index as id (so kernels skip the query by local index).
  const SoABlock& probes() const { return *probes_; }
  size_t probe_begin() const { return probe_begin_; }
  size_t probe_end() const { return probe_begin_ + size_; }

 private:
  friend class TaskArena;

  PartitionView(const Dataset& data, const PointId* ids, size_t size,
                size_t num_core, const SoABlock& probes, size_t probe_begin)
      : data_(&data),
        ids_(ids),
        size_(size),
        num_core_(num_core),
        probes_(&probes),
        probe_begin_(probe_begin) {}

  const Dataset* data_;
  const PointId* ids_;
  size_t size_;
  size_t num_core_;
  const SoABlock* probes_;
  size_t probe_begin_;
};

// Builds the shared probe arena of one reduce task. Usage, inside a
// reduce-task attempt:
//
//   TaskArena arena(data);
//   arena.TryReserve(num_cells, num_points);     // optional pre-sizing
//   for each cell:  arena.BeginCell();
//                   arena.AddPoint(id)...        // core first, then support
//                   arena.EndCell(num_core, permutation_seed);
//   arena.TryBuildProbes();
//   for each cell:  PartitionView view = arena.View(cell_index);
//
// The two-phase shape exists because id storage is one growing vector:
// views hand out raw pointers into it, so they are only created after every
// cell has been staged. TryBuildProbes lays each cell's segment into one
// SoABlock, block-aligned, in a deterministic per-cell random permutation
// (seeded by the caller — Nested-Loop's randomized probe order relies on
// it), and records the kernels.soa_reuse.* metrics.
class TaskArena {
 public:
  // `budget` (optional, borrowed) bounds the arena's reservations: the id
  // staging and the probe buffer are charged before allocation and the
  // charges are held for the arena's lifetime.
  explicit TaskArena(const Dataset& data, MemoryBudget* budget = nullptr);

  // Optional pre-sizing with the task's totals: charges the estimated bytes
  // against the budget and converts denial or a failed allocation into
  // kResourceExhausted.
  Status TryReserve(size_t num_cells, size_t num_points);

  void BeginCell();
  void AddPoint(PointId id) { ids_.push_back(id); }
  void EndCell(size_t num_core, uint64_t permutation_seed);

  // Lays out every staged cell's probe segment, once. Converts
  // std::bad_alloc into kResourceExhausted (reservation estimates cover the
  // common case, but staging past the reserved sizes can still grow the
  // buffers).
  Status TryBuildProbes();

  size_t num_cells() const { return cells_.size(); }

  // View of staged cell `index` (creation order). Valid only after
  // TryBuildProbes() succeeded, until the arena dies.
  PartitionView View(size_t index) const;

 private:
  struct CellSlot {
    size_t ids_begin = 0;
    size_t size = 0;
    size_t num_core = 0;
    size_t probe_begin = 0;
    uint64_t permutation_seed = 0;
  };

  const Dataset& data_;
  MemoryBudget* budget_;
  MemoryCharge stage_charge_;
  MemoryCharge probe_charge_;
  std::vector<PointId> ids_;
  std::vector<CellSlot> cells_;
  SoABlock probes_;
  bool built_ = false;
};

}  // namespace dod

#endif  // DOD_DETECTION_PARTITION_VIEW_H_
