// Copyright 2026 The DOD Authors.

#include "streaming/streaming_detector.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/timer.h"
#include "durability/payload.h"
#include "kernels/distance_kernels.h"
#include "observability/metrics.h"
#include "observability/trace.h"

namespace dod {
namespace {

// The one snapshot layout: the resident blocks, whose points carry their
// (count, saturated) summary, the flagged set, and the watermark/reorder
// section (arrival counters, the clock, buffered blocks). Any other version
// fails with kFailedPrecondition: refusing a different writer's state beats
// misparsing it.
constexpr uint32_t kStreamStateVersion = 5;

// Saturation slack: counting a point stops at min_neighbors + kSummarySlack
// neighbors and the summary is carried as a certified lower bound from
// there. The slack absorbs expiry decrements — a saturated point only
// re-counts once its bound drops below min_neighbors. It affects cost
// only, never verdicts.
constexpr int kSummarySlack = 32;

// The saturation cap, min_neighbors + kSummarySlack clamped to int.
int SaturationCap(int min_neighbors) {
  return min_neighbors > std::numeric_limits<int>::max() - kSummarySlack
             ? std::numeric_limits<int>::max()
             : min_neighbors + kSummarySlack;
}

// Most cells one supporting ring may span, (2R + 1)^dims: every round
// walks the ring of each touched cell with one hash probe per cell. The
// default side (= radius, R = 1) spans 3^8 = 6561 cells at kMaxDimensions;
// a side far below the radius would otherwise make a round walk billions
// of cells, or overflow R's int.
constexpr double kMaxRingCells = 1 << 20;

// Supporting ring in cells per side: with cell side s, any neighbor within
// distance r is at most ceil(r/s) cells away per dimension. Computed in
// double (at least 1; NaN reads as 1) so a tiny side cannot overflow the
// int conversion.
double SupportRing(double radius, double side) {
  return std::max(1.0, std::ceil(radius / side));
}

Status CheckRingCells(double ring, int dims) {
  if (std::pow(2.0 * ring + 1.0, dims) <= kMaxRingCells) return Status::Ok();
  char message[192];
  std::snprintf(message, sizeof(message),
                "StreamingDetector: the supporting ring R = ceil(radius / "
                "cell_side) = %.6g spans more than 2^20 cells, (2R + 1)^%d; "
                "use a larger cell_side",
                ring, dims);
  return Status::InvalidArgument(message);
}

// Invokes fn(coord) for every cell coordinate within Chebyshev distance
// `ring` of `center` — center included — in odometer order over the
// (2*ring+1)^dims offset block (dimension 0 fastest).
template <typename Fn>
void ForEachInRing(const CellCoord& center, int ring, Fn&& fn) {
  CellCoord probe;
  probe.dims = center.dims;
  int offset[kMaxDimensions];
  for (int d = 0; d < center.dims; ++d) {
    offset[d] = -ring;
    probe.c[d] = center.c[d] - ring;
  }
  while (true) {
    fn(probe);
    int d = 0;
    while (d < center.dims) {
      if (++offset[d] <= ring) {
        probe.c[d] = center.c[d] + offset[d];
        break;
      }
      offset[d] = -ring;
      probe.c[d] = center.c[d] - ring;
      ++d;
    }
    if (d == center.dims) break;
  }
}

}  // namespace

StreamingDetector::StreamingDetector(const StreamingConfig& config)
    : config_(config),
      side_(config.cell_side > 0.0 ? config.cell_side
                                   : config.params.radius),
      executor_(std::make_unique<ParallelExecutor>(config.num_threads)) {
  // Create refuses rings past kMaxRingCells; the clamp only keeps the
  // conversion defined for the unchecked JobKeyFor instances.
  ring_ = static_cast<int>(
      std::min(SupportRing(config_.params.radius, side_), kMaxRingCells));
  if (config_.grid_origin.dims() > 0) {
    for (int i = 0; i < config_.grid_origin.dims(); ++i) {
      origin_[i] = config_.grid_origin[i];
    }
  }
}

Result<std::unique_ptr<StreamingDetector>> StreamingDetector::Create(
    const StreamingConfig& config) {
  if (!(config.params.radius > 0.0) || config.params.min_neighbors < 1) {
    return Status::InvalidArgument(
        "StreamingDetector: radius must be > 0 and min_neighbors >= 1");
  }
  if (config.cell_side < 0.0) {
    return Status::InvalidArgument("StreamingDetector: cell_side must be >= 0");
  }
  if (config.num_threads > kMaxThreads) {
    return Status::InvalidArgument(
        "StreamingDetector: num_threads must be <= " +
        std::to_string(kMaxThreads));
  }
  // The ring in double, before any int conversion; the dims-dependent
  // bound is checked again once the first block (or a restore) sets them.
  DOD_RETURN_IF_ERROR(CheckRingCells(
      SupportRing(config.params.radius,
                  config.cell_side > 0.0 ? config.cell_side
                                         : config.params.radius),
      std::max(1, config.grid_origin.dims())));
  if (config.watermark.enabled && (!std::isfinite(config.watermark.lateness) ||
                                   config.watermark.lateness < 0.0)) {
    return Status::InvalidArgument(
        "StreamingDetector: watermark lateness must be finite and >= 0");
  }
  if (config.resume && config.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "StreamingDetector: resume requires checkpoint_dir");
  }
  std::unique_ptr<StreamingDetector> service(new StreamingDetector(config));
  if (!config.checkpoint_dir.empty()) {
    DOD_ASSIGN_OR_RETURN(service->store_,
                         CheckpointStore::Open(config.checkpoint_dir,
                                               service->JobKey(),
                                               config.resume));
    if (config.resume) DOD_RETURN_IF_ERROR(service->RestoreLatest());
  }
  return service;
}

Status StreamingDetector::InitDims(int dims) {
  if (dims < 1 || dims > kMaxDimensions) {
    return Status::InvalidArgument("StreamingDetector: unsupported dims " +
                                   std::to_string(dims));
  }
  if (config_.grid_origin.dims() > 0 && config_.grid_origin.dims() != dims) {
    return Status::InvalidArgument(
        "StreamingDetector: block dims do not match grid_origin dims");
  }
  DOD_RETURN_IF_ERROR(CheckRingCells(ring_, dims));
  dims_ = dims;
  window_.emplace(dims);
  buffers_ = RoundBuffers(dims);
  return Status::Ok();
}

Status StreamingDetector::ValidateBlock(const StreamBlock& block) const {
  if (block.ids.size() != block.points.size()) {
    return Status::InvalidArgument(
        "StreamingDetector::Feed: block has " +
        std::to_string(block.ids.size()) + " ids for " +
        std::to_string(block.points.size()) + " points");
  }
  if (block.points.empty()) return Status::Ok();
  if (dims_ != 0 && block.points.dims() != dims_) {
    return Status::InvalidArgument(
        "StreamingDetector::Feed: block dims " +
        std::to_string(block.points.dims()) + " != window dims " +
        std::to_string(dims_));
  }
  if (dims_ == 0) {
    // InitDims' checks, made before admission: a block the reorder stage
    // buffers must not fail when the drain admits it.
    if (config_.grid_origin.dims() > 0 &&
        config_.grid_origin.dims() != block.points.dims()) {
      return Status::InvalidArgument(
          "StreamingDetector::Feed: block dims " +
          std::to_string(block.points.dims()) + " != grid_origin dims " +
          std::to_string(config_.grid_origin.dims()));
    }
    DOD_RETURN_IF_ERROR(CheckRingCells(ring_, block.points.dims()));
  }
  DOD_RETURN_IF_ERROR(block.points.Validate());
  // Past kMaxCellIndex cells from the grid origin an int32 cell key would
  // fold distinct cells together; such a point has no exact key, so the
  // whole block is refused before anything is admitted or buffered.
  CellCoord key;
  for (size_t i = 0; i < block.points.size(); ++i) {
    const double* p = block.points[static_cast<PointId>(i)];
    if (!TryUniformCellKey(p, block.points.dims(), origin_, side_, &key)) {
      return Status::InvalidArgument(
          "StreamingDetector::Feed: point " + std::to_string(block.ids[i]) +
          " lies more than 2^30 cells from the grid origin");
    }
  }
  std::unordered_set<PointId> seen;
  seen.reserve(block.ids.size());
  for (PointId id : block.ids) {
    if (!seen.insert(id).second || id_to_slot_.count(id) != 0) {
      return Status::InvalidArgument(
          "StreamingDetector::Feed: duplicate point id " +
          std::to_string(id) + " (ids must be unique among resident points)");
    }
  }
  return Status::Ok();
}

uint32_t StreamingDetector::AllocSlot(PointId id, const double* p) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    double* row = window_->mutable_raw().data() +
                  static_cast<size_t>(slot) * dims_;
    std::copy(p, p + dims_, row);
  } else {
    slot = static_cast<uint32_t>(window_->Append(p));
    slots_.push_back(SlotState{});
  }
  SlotState state;
  state.stream_id = id;
  slots_[slot] = state;
  id_to_slot_[id] = slot;
  return slot;
}

CellCoord StreamingDetector::KeyOf(const double* p) const {
  // The exact keying the batch grids use (detection/cell_key.h); every
  // resident point passed TryUniformCellKey, in ValidateBlock or, when
  // restored, in RestoreLatest.
  return UniformCellKey(p, dims_, origin_, side_);
}

uint32_t StreamingDetector::OpenCell(const CellCoord& coord) {
  return cells_.FindOrInsert(coord, CellKeys{&cell_coords_}, [&] {
    if (free_cells_.empty()) {
      cell_coords_.push_back(coord);
      cell_states_.emplace_back();
      return static_cast<uint32_t>(cell_coords_.size() - 1);
    }
    const uint32_t id = free_cells_.back();
    free_cells_.pop_back();
    cell_coords_[id] = coord;
    return id;
  });
}

void StreamingDetector::AppendBlock(const StreamBlock& block) {
  if (block.points.empty()) return;
  std::vector<uint32_t> slots;
  slots.reserve(block.ids.size());
  for (size_t i = 0; i < block.ids.size(); ++i) {
    const double* p = block.points[static_cast<PointId>(i)];
    const uint32_t slot = AllocSlot(block.ids[i], p);
    const uint32_t id = OpenCell(KeyOf(p));
    CellState& cell = cell_states_[id];
    cell.slots.push_back(slot);
    ++cell.fresh;
    slots.push_back(slot);
    buffers_.touched.push_back(RoundPoint{id, slot, /*evicted=*/false});
  }
  blocks_.push_back(std::move(slots));
}

size_t StreamingDetector::ExpireBlocks(std::vector<PointId>* expired_flagged) {
  size_t expired_points = 0;
  // The round's own block is the newest one and window_blocks >= 1, so
  // expiry only ever removes old residents: each cell's fresh suffix
  // stays intact.
  while (config_.window_blocks > 0 && blocks_.size() > config_.window_blocks) {
    for (uint32_t slot : blocks_.front()) {
      const SlotState& state = slots_[slot];
      const CellCoord coord = KeyOf((*window_)[slot]);
      const uint32_t id = FindCell(coord);
      DOD_CHECK(id != CellIndex::kNone);
      std::vector<uint32_t>& members = cell_states_[id].slots;
      members.erase(std::find(members.begin(), members.end(), slot));
      if (members.empty()) {
        // An emptied cell held no appended slot, so its state is clean;
        // its slot buffer stays for reuse.
        cells_.Erase(coord, CellKeys{&cell_coords_});
        free_cells_.push_back(id);
      }
      if (state.flagged != 0) expired_flagged->push_back(state.stream_id);
      if (state.saturated != 0) --saturated_count_;
      id_to_slot_.erase(state.stream_id);
      free_slots_.push_back(slot);
      buffers_.touched.push_back(RoundPoint{id, slot, /*evicted=*/true});
      ++expired_points;
    }
    blocks_.pop_front();
  }
  return expired_points;
}

Status StreamingDetector::SummaryUpdate(OutlierDelta* delta) {
  RoundBuffers& buf = buffers_;
  buf.groups.clear();
  buf.appended_soa.Clear();
  buf.evicted_soa.Clear();
  buf.dirty.clear();
  buf.edges.clear();
  {
    trace::Span span("stream", "summary_update");
    // Touched groups: the round's appended and evicted points stably
    // sorted by cell id (appended before evicted, each in window order),
    // each group's points laid out contiguously in its SoA. Evicted
    // coordinates are still readable: freed slots are only recycled by the
    // *next* round's appends.
    std::vector<RoundPoint>& touched = buf.touched;
    std::stable_sort(
        touched.begin(), touched.end(),
        [](const RoundPoint& a, const RoundPoint& b) { return a.cell < b.cell; });
    for (size_t i = 0; i < touched.size();) {
      TouchedGroup group;
      group.cell = touched[i].cell;
      group.ins_begin = static_cast<uint32_t>(buf.appended_soa.size());
      group.ev_begin = static_cast<uint32_t>(buf.evicted_soa.size());
      for (; i < touched.size() && touched[i].cell == group.cell; ++i) {
        (touched[i].evicted ? buf.evicted_soa : buf.appended_soa)
            .Append((*window_)[touched[i].slot], touched[i].slot);
      }
      group.ins_end = static_cast<uint32_t>(buf.appended_soa.size());
      group.ev_end = static_cast<uint32_t>(buf.evicted_soa.size());
      buf.groups.push_back(group);
    }

    // One ring walk per group, one lookup per probe. Correctness: a point
    // q's neighbor count changed iff a point within distance r of q was
    // appended or expired; that point's cell is a touched group, and q's
    // cell is then within ring_ of it (coordinates more than ring_ cells
    // apart differ by > ring_*side >= r in that dimension). By the same
    // argument every neighbor of an appended point lies in a dirty cell
    // with an edge to the point's group. A resident cell joins the dirty
    // list the first time a walk reaches it, so the list follows the
    // sorted groups — never hash or thread order — and every (dirty cell,
    // group) pair becomes one edge.
    if (++pass_stamp_ == 0) {
      // The stamp wrapped: forget every stale stamp before reusing them.
      for (CellState& cell : cell_states_) cell.stamp = 0;
      pass_stamp_ = 1;
    }
    for (uint32_t g = 0; g < buf.groups.size(); ++g) {
      const CellCoord& center = cell_coords_[buf.groups[g].cell];
      ForEachInRing(center, ring_, [&](const CellCoord& probe) {
        const uint32_t id = FindCell(probe);
        if (id == CellIndex::kNone) return;
        CellState& cell = cell_states_[id];
        if (cell.stamp != pass_stamp_) {
          cell.stamp = pass_stamp_;
          cell.dirty_index = static_cast<uint32_t>(buf.dirty.size());
          buf.dirty.push_back(id);
        }
        buf.edges.emplace_back(cell.dirty_index, g);
      });
    }
    const size_t num_dirty = buf.dirty.size();
    delta->stats.dirty_cells = num_dirty;

    // Edges CSR by dirty cell: counts shifted two places, a prefix sum,
    // and a stable scatter that advances edge_begin[i + 1] from cell i's
    // start to its end, so a cell's groups stay in group order.
    buf.edge_begin.assign(num_dirty + 2, 0);
    for (const auto& edge : buf.edges) ++buf.edge_begin[edge.first + 2];
    for (size_t i = 2; i < num_dirty + 2; ++i) {
      buf.edge_begin[i] += buf.edge_begin[i - 1];
    }
    buf.edge_group.resize(buf.edges.size());
    for (const auto& edge : buf.edges) {
      buf.edge_group[buf.edge_begin[edge.first + 1]++] = edge.second;
    }

    // A chunk owns its cells' slot and cell states and writes the rest to
    // its PassChunk; merged in chunk order, targets keep dirty order and
    // every sum is the same at any split.
    const size_t num_chunks = std::clamp<size_t>(
        static_cast<size_t>(executor_->num_threads()), 1,
        std::max<size_t>(num_dirty, 1));
    if (buf.chunks.size() < num_chunks) buf.chunks.resize(num_chunks);
    const auto run_chunk = [&](size_t c) {
      UpdateDirtyCells(c * num_dirty / num_chunks,
                       (c + 1) * num_dirty / num_chunks, &buf.chunks[c]);
      return Status::Ok();
    };
    if (num_chunks == 1) {  // inline: no workers woken for one chunk
      run_chunk(0);
    } else {
      DOD_RETURN_IF_ERROR(executor_->RunTasks(num_chunks, run_chunk));
    }
    PassChunk& merged = buf.chunks[0];
    const auto append = [](auto& to, const auto& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    for (size_t c = 0; c < num_chunks; ++c) {
      const PassChunk& chunk = buf.chunks[c];
      append(delta->newly_flagged, chunk.delta.newly_flagged);
      append(delta->newly_cleared, chunk.delta.newly_cleared);
      delta->stats.insert_pairs += chunk.delta.stats.insert_pairs;
      delta->stats.expiry_pairs += chunk.delta.stats.expiry_pairs;
      delta->stats.recounted_points += chunk.delta.stats.recounted_points;
      if (c == 0) continue;
      const uint32_t shift = static_cast<uint32_t>(merged.target_locals.size());
      for (TargetCell target : chunk.targets) {
        target.locals_begin += shift;
        target.locals_end += shift;
        merged.targets.push_back(target);
      }
      append(merged.target_locals, chunk.target_locals);
      for (size_t a = 0; a < merged.first_counts.size(); ++a) {
        merged.first_counts[a] += chunk.first_counts[a];
      }
    }
    // Every appended point now holds its neighbor count, exact below the
    // cap.
    for (uint32_t a = 0; a < buf.appended_soa.size(); ++a) {
      SetSummary(buf.appended_soa.IdAt(a), merged.first_counts[a], delta);
      ++delta->stats.full_counted_points;
    }
    span.Arg("dirty_cells", static_cast<uint64_t>(num_dirty))
        .Arg("inc_pairs", delta->stats.insert_pairs)
        .Arg("dec_pairs", delta->stats.expiry_pairs);
  }
  return CountTargets(delta);
}

void StreamingDetector::UpdateDirtyCells(size_t begin, size_t end,
                                         PassChunk* out) {
  const RoundBuffers& buf = buffers_;
  out->delta = OutlierDelta();
  out->targets.clear();
  out->target_locals.clear();
  out->first_counts.assign(buf.appended_soa.size(), 0);
  const double sq_radius = config_.params.radius * config_.params.radius;
  const KernelOps& ops = GetKernelOps(config_.params.kernels);
  const int k = config_.params.min_neighbors;
  const int cap = SaturationCap(k);
  // Column hits credit the appended points' first counts.
  uint32_t* const col_counts = out->first_counts.data();
  constexpr size_t kChunk = 64;
  double queries[kChunk * kMaxDimensions];
  uint32_t inc[kChunk];
  uint32_t dec[kChunk];
  const uint32_t* edge_group = buf.edge_group.data();
  for (size_t i = begin; i < end; ++i) {
    const uint32_t id = buf.dirty[i];
    CellState& cell = cell_states_[id];
    const std::vector<uint32_t>& members = cell.slots;
    const uint32_t edge_begin = buf.edge_begin[i];
    const uint32_t edge_end = buf.edge_begin[i + 1];
    const size_t num_old = members.size() - cell.fresh;
    const auto locals_begin = static_cast<uint32_t>(out->target_locals.size());

    // Old residents 64 rows at a time, gathered onto the stack, tiled
    // against each edge's appended (inc) and evicted (dec) points.
    for (size_t next = 0; next < num_old; next += kChunk) {
      const size_t rows = std::min(kChunk, num_old - next);
      for (size_t q = 0; q < rows; ++q) {
        const double* row = (*window_)[members[next + q]];
        std::copy(row, row + dims_, queries + q * dims_);
      }
      std::fill(inc, inc + rows, 0u);
      std::fill(dec, dec + rows, 0u);
      for (uint32_t e = edge_begin; e < edge_end; ++e) {
        const TouchedGroup& group = buf.groups[edge_group[e]];
        if (group.ins_begin != group.ins_end) {
          ops.count_tile_within_radius(
              buf.appended_soa, group.ins_begin, group.ins_end, queries, rows,
              sq_radius, inc, col_counts + group.ins_begin);
        }
        if (group.ev_begin != group.ev_end) {
          ops.count_tile_within_radius(buf.evicted_soa, group.ev_begin,
                                       group.ev_end, queries, rows, sq_radius,
                                       dec, /*col_counts=*/nullptr);
        }
      }
      // Exact counts adjust and flip in place; saturated bounds absorb the
      // change and queue a re-count only when they drop below k. inc ==
      // dec changes neither an exact count nor a bound (which is >= k at
      // a round boundary), so only a net change matters.
      for (size_t q = 0; q < rows; ++q) {
        const long long change = static_cast<long long>(inc[q]) - dec[q];
        if (change == 0) continue;
        SlotState& state = slots_[members[next + q]];
        const long long count = static_cast<long long>(state.count) + change;
        if (state.saturated == 0) {
          DOD_CHECK(count >= 0);
          state.count = static_cast<uint32_t>(count);
          const bool now = count < k;
          if (now != (state.flagged != 0)) {
            (now ? out->delta.newly_flagged : out->delta.newly_cleared)
                .push_back(state.stream_id);
            state.flagged = now ? 1 : 0;
          }
        } else if (count >= k) {
          // True count >= old count + inc - dec, so the bound stays
          // certified; the point stays a known inlier.
          state.count = static_cast<uint32_t>(count);
        } else {
          state.count = static_cast<uint32_t>(std::max(count, 0LL));
          out->target_locals.push_back(static_cast<uint32_t>(next + q));
          ++out->delta.stats.recounted_points;
        }
      }
    }

    // Each (old resident, edge segment) pair was counted once; the cell's
    // own group, if any, is among its edges.
    const TouchedGroup* own = nullptr;
    for (uint32_t e = edge_begin; e < edge_end; ++e) {
      const TouchedGroup& group = buf.groups[edge_group[e]];
      out->delta.stats.insert_pairs +=
          num_old * (group.ins_end - group.ins_begin);
      out->delta.stats.expiry_pairs += num_old * (group.ev_end - group.ev_begin);
      if (group.cell == id) own = &group;
    }

    // The cell's own appended points count their appended neighbors (self
    // skipped) over the edge groups, stopping at the cap: min(a, cap) + b
    // clamps to the same summary as a + b, and a dense block would
    // otherwise cost its square.
    if (cell.fresh != 0) {
      DOD_CHECK(own != nullptr && own->ins_end - own->ins_begin == cell.fresh);
      for (uint32_t a = own->ins_begin; a < own->ins_end; ++a) {
        const double* p = (*window_)[buf.appended_soa.IdAt(a)];
        int count = 0;
        for (uint32_t e = edge_begin; e < edge_end && count < cap; ++e) {
          const TouchedGroup& group = buf.groups[edge_group[e]];
          if (group.ins_begin == group.ins_end) continue;
          count += ops.count_within_radius(
              buf.appended_soa, group.ins_begin, group.ins_end, p, sq_radius,
              /*skip_slot=*/a, cap - count, /*pairs=*/nullptr);
        }
        out->first_counts[a] += static_cast<uint32_t>(count);
      }
      cell.fresh = 0;
    }
    const auto locals_end = static_cast<uint32_t>(out->target_locals.size());
    if (locals_end != locals_begin) {
      out->targets.push_back(TargetCell{id, locals_begin, locals_end});
    }
  }
}

Status StreamingDetector::CountTargets(OutlierDelta* delta) {
  trace::Span span("stream", "summary_recount");
  span.Arg("recounts",
           static_cast<uint64_t>(delta->stats.recounted_points))
      .Arg("full_counts",
           static_cast<uint64_t>(delta->stats.full_counted_points));
  std::vector<TargetCell>& targets = buffers_.chunks[0].targets;
  if (targets.empty()) return Status::Ok();

  // Each target cell's ring, itself included, as one segment. A count
  // clamped at the cap does not depend on probe order, so no permutation.
  SoABlock& ring = buffers_.ring_soa;
  ring.Clear();
  for (TargetCell& target : targets) {
    target.ring_begin = static_cast<uint32_t>(ring.size());
    const CellCoord& center = cell_coords_[target.cell];
    ForEachInRing(center, ring_, [&](const CellCoord& probe) {
      const uint32_t id = FindCell(probe);
      if (id == CellIndex::kNone) return;
      if (id == target.cell) {
        target.center_begin = static_cast<uint32_t>(ring.size());
      }
      for (uint32_t slot : cell_states_[id].slots) {
        ring.Append((*window_)[slot], slot);
      }
    });
    target.ring_end = static_cast<uint32_t>(ring.size());
  }

  const int cap = SaturationCap(config_.params.min_neighbors);
  const double sq_radius = config_.params.radius * config_.params.radius;
  const KernelOps& ops = GetKernelOps(config_.params.kernels);
  const std::vector<uint32_t>& locals = buffers_.chunks[0].target_locals;
  std::vector<uint32_t>& recounts = buffers_.recounts;
  recounts.resize(locals.size());
  DOD_RETURN_IF_ERROR(executor_->RunTasks(
      targets.size(), [&](size_t i) -> Status {
        const TargetCell& target = targets[i];
        for (uint32_t t = target.locals_begin; t < target.locals_end; ++t) {
          const uint32_t slot = cell_states_[target.cell].slots[locals[t]];
          recounts[t] = static_cast<uint32_t>(ops.count_within_radius(
              ring, target.ring_begin, target.ring_end, (*window_)[slot],
              sq_radius, target.center_begin + locals[t], cap,
              /*pairs=*/nullptr));
        }
        return Status::Ok();
      }));

  for (const TargetCell& target : targets) {
    for (uint32_t t = target.locals_begin; t < target.locals_end; ++t) {
      SetSummary(cell_states_[target.cell].slots[locals[t]], recounts[t],
                 delta);
    }
  }
  return Status::Ok();
}

void StreamingDetector::SetSummary(uint32_t slot, uint32_t count,
                                   OutlierDelta* delta) {
  const uint32_t cap =
      static_cast<uint32_t>(SaturationCap(config_.params.min_neighbors));
  SlotState& state = slots_[slot];
  saturated_count_ -= state.saturated;
  state.saturated = count >= cap ? 1 : 0;
  saturated_count_ += state.saturated;
  state.count = std::min(count, cap);
  const bool now =
      state.saturated == 0 &&
      state.count < static_cast<uint32_t>(config_.params.min_neighbors);
  if (now != (state.flagged != 0)) {
    (now ? delta->newly_flagged : delta->newly_cleared)
        .push_back(state.stream_id);
    state.flagged = now ? 1 : 0;
  }
}

std::optional<NeighborCountSummary> StreamingDetector::SummaryOf(
    PointId id) const {
  const auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return std::nullopt;
  const SlotState& state = slots_[it->second];
  return NeighborCountSummary{state.count, state.saturated != 0};
}

void StreamingDetector::ApplyDeltaToOutlierSet(const OutlierDelta& delta) {
  if (delta.newly_flagged.empty() && delta.newly_cleared.empty()) return;
  std::vector<PointId> next;
  next.reserve(outliers_.size() + delta.newly_flagged.size());
  std::set_difference(outliers_.begin(), outliers_.end(),
                      delta.newly_cleared.begin(), delta.newly_cleared.end(),
                      std::back_inserter(next));
  std::vector<PointId> merged;
  merged.reserve(next.size() + delta.newly_flagged.size());
  std::merge(next.begin(), next.end(), delta.newly_flagged.begin(),
             delta.newly_flagged.end(), std::back_inserter(merged));
  outliers_ = std::move(merged);
}

void StreamingDetector::RecordRound(const OutlierDelta& delta) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  static const uint32_t kRounds =
      metrics.Id("stream.rounds", MetricKind::kCounter);
  static const uint32_t kDirtyCells =
      metrics.Id("stream.cells_redetected", MetricKind::kCounter);
  static const uint32_t kFlagged =
      metrics.Id("stream.delta_flagged", MetricKind::kCounter);
  static const uint32_t kCleared =
      metrics.Id("stream.delta_cleared", MetricKind::kCounter);
  static const uint32_t kResident =
      metrics.Id("stream.resident_points", MetricKind::kGauge);
  static const uint32_t kDirtyFraction =
      metrics.Id("stream.dirty_cell_fraction", MetricKind::kHistogram);
  static const uint32_t kRoundSeconds =
      metrics.Id("stream.round_seconds", MetricKind::kHistogram);
  static const uint32_t kInsertPairs =
      metrics.Id("stream.summary.insert_count_pairs", MetricKind::kCounter);
  static const uint32_t kExpiryPairs =
      metrics.Id("stream.summary.expiry_count_pairs", MetricKind::kCounter);
  static const uint32_t kFullPoints =
      metrics.Id("stream.summary.full_count_points", MetricKind::kCounter);
  static const uint32_t kRecountPoints =
      metrics.Id("stream.summary.recount_points", MetricKind::kCounter);
  static const uint32_t kSaturated =
      metrics.Id("stream.summary.saturated_points", MetricKind::kGauge);
  static const uint32_t kRecountQueue =
      metrics.Id("stream.summary.recount_queue", MetricKind::kHistogram);
  // The stream.watermark.* family and stream.late_dropped likewise
  // register on every round so validate_trace sees the schema on in-order
  // runs too; the counters only move under a watermark policy.
  static const uint32_t kLateDropped =
      metrics.Id("stream.late_dropped", MetricKind::kCounter);
  static const uint32_t kAdvances =
      metrics.Id("stream.watermark.advances", MetricKind::kCounter);
  static const uint32_t kReorderAdmitted =
      metrics.Id("stream.watermark.reorder_admitted", MetricKind::kCounter);
  static const uint32_t kBuffered =
      metrics.Id("stream.watermark.buffered_blocks", MetricKind::kGauge);
  (void)kLateDropped;
  (void)kAdvances;
  (void)kBuffered;
  if (config_.watermark.enabled) metrics.Increment(kReorderAdmitted);
  metrics.Increment(kRounds);
  metrics.Increment(kDirtyCells, delta.stats.dirty_cells);
  metrics.Increment(kFlagged, delta.newly_flagged.size());
  metrics.Increment(kCleared, delta.newly_cleared.size());
  metrics.SetMax(kResident,
                 static_cast<double>(delta.stats.resident_points));
  metrics.Observe(kDirtyFraction, delta.stats.dirty_fraction);
  metrics.Observe(kRoundSeconds, delta.stats.round_seconds);
  metrics.Increment(kInsertPairs, delta.stats.insert_pairs);
  metrics.Increment(kExpiryPairs, delta.stats.expiry_pairs);
  metrics.Increment(kFullPoints, delta.stats.full_counted_points);
  metrics.Increment(kRecountPoints, delta.stats.recounted_points);
  metrics.SetMax(kSaturated, static_cast<double>(saturated_points()));
  metrics.Observe(kRecountQueue,
                  static_cast<double>(delta.stats.recounted_points));
}

Result<OutlierDelta> StreamingDetector::AdmitBlock(const StreamBlock& block) {
  StopWatch watch;
  if (dims_ == 0 && !block.points.empty()) {
    DOD_RETURN_IF_ERROR(InitDims(block.points.dims()));
  }
  trace::Span span("stream", "round");

  OutlierDelta delta;
  std::vector<PointId> expired_flagged;
  buffers_.touched.clear();
  AppendBlock(block);
  const size_t expired_points = ExpireBlocks(&expired_flagged);
  DOD_RETURN_IF_ERROR(SummaryUpdate(&delta));

  // Flagged points that left the window clear by expiry; verdict flips
  // were collected per dirty cell above. The two sources are disjoint
  // (expired slots are out of every cell before detection runs).
  delta.newly_cleared.insert(delta.newly_cleared.end(),
                             expired_flagged.begin(), expired_flagged.end());
  std::sort(delta.newly_flagged.begin(), delta.newly_flagged.end());
  std::sort(delta.newly_cleared.begin(), delta.newly_cleared.end());
  ApplyDeltaToOutlierSet(delta);

  ++round_;
  delta.stats.round = round_;
  delta.stats.appended_points = block.ids.size();
  delta.stats.expired_points = expired_points;
  delta.stats.resident_points = id_to_slot_.size();
  delta.stats.resident_cells = cells_.size();
  delta.stats.dirty_fraction =
      cells_.empty() ? 0.0
                     : static_cast<double>(delta.stats.dirty_cells) /
                           static_cast<double>(cells_.size());
  delta.stats.round_seconds = watch.ElapsedSeconds();
  RecordRound(delta);
  span.Arg("round", delta.stats.round)
      .Arg("appended", static_cast<uint64_t>(delta.stats.appended_points))
      .Arg("expired", static_cast<uint64_t>(expired_points))
      .Arg("dirty_cells", static_cast<uint64_t>(delta.stats.dirty_cells))
      .Arg("flagged", static_cast<uint64_t>(delta.newly_flagged.size()))
      .Arg("cleared", static_cast<uint64_t>(delta.newly_cleared.size()));
  return delta;
}

Result<OutlierDelta> StreamingDetector::Feed(const StreamBlock& block) {
  if (config_.watermark.enabled) {
    return Status::FailedPrecondition(
        "StreamingDetector::Feed: a watermark policy is enabled; blocks "
        "must go through Ingest so the reorder stage sees them");
  }
  DOD_RETURN_IF_ERROR(ValidateBlock(block));
  DOD_ASSIGN_OR_RETURN(OutlierDelta delta, AdmitBlock(block));
  arrivals_ = round_;  // in-order mode: one arrival per round, by definition
  if (store_ != nullptr && config_.checkpoint_every > 0 &&
      round_ % config_.checkpoint_every == 0) {
    DOD_RETURN_IF_ERROR(CommitCheckpoint());
  }
  return delta;
}

Status StreamingDetector::ValidateArrival(const StreamBlock& block) const {
  if (!std::isfinite(block.timestamp)) {
    return Status::InvalidArgument(
        "StreamingDetector::Ingest: block timestamp must be finite under a "
        "watermark policy");
  }
  DOD_RETURN_IF_ERROR(ValidateBlock(block));
  for (PointId id : block.ids) {
    if (pending_ids_.count(id) != 0) {
      return Status::InvalidArgument(
          "StreamingDetector::Ingest: duplicate point id " +
          std::to_string(id) + " (already parked in the reorder buffer)");
    }
  }
  // The window learns its dims from the first *admitted* block; arrivals
  // must agree among themselves too, or a buffered block would fail — and
  // abort a drain half-applied — only at admission time.
  if (dims_ == 0 && !block.points.empty()) {
    for (const PendingBlock& pending : reorder_) {
      if (pending.block.points.empty()) continue;
      if (pending.block.points.dims() != block.points.dims()) {
        return Status::InvalidArgument(
            "StreamingDetector::Ingest: block dims " +
            std::to_string(block.points.dims()) + " != buffered dims " +
            std::to_string(pending.block.points.dims()));
      }
      break;
    }
  }
  return Status::Ok();
}

bool StreamingDetector::CurrentWatermark(double* watermark) const {
  if (!saw_arrival_) return false;
  *watermark = clock_ - config_.watermark.lateness;
  return true;
}

bool StreamingDetector::CanonicalOrder(const PendingBlock& a,
                                       const PendingBlock& b) {
  if (a.block.timestamp != b.block.timestamp) {
    return a.block.timestamp < b.block.timestamp;
  }
  return a.arrival < b.arrival;
}

Status StreamingDetector::DrainReorderBuffer(double bound,
                                             IngestResult* result) {
  while (!reorder_.empty() && reorder_.front().block.timestamp < bound) {
    PendingBlock pending = std::move(reorder_.front());
    reorder_.pop_front();
    for (PointId id : pending.block.ids) pending_ids_.erase(id);
    trace::Span span("stream", "reorder_admit");
    span.Arg("arrival", pending.arrival)
        .Arg("buffered", static_cast<uint64_t>(reorder_.size()));
    DOD_ASSIGN_OR_RETURN(OutlierDelta delta, AdmitBlock(pending.block));
    result->admitted.push_back(std::move(delta));
  }
  return Status::Ok();
}

Result<IngestResult> StreamingDetector::Ingest(const StreamBlock& block) {
  IngestResult result;
  if (!config_.watermark.enabled) {
    DOD_ASSIGN_OR_RETURN(OutlierDelta delta, Feed(block));
    result.admitted.push_back(std::move(delta));
    return result;
  }
  DOD_RETURN_IF_ERROR(ValidateArrival(block));

  MetricsRegistry& metrics = MetricsRegistry::Global();
  static const uint32_t kLateDropped =
      metrics.Id("stream.late_dropped", MetricKind::kCounter);
  static const uint32_t kAdvances =
      metrics.Id("stream.watermark.advances", MetricKind::kCounter);
  static const uint32_t kBuffered =
      metrics.Id("stream.watermark.buffered_blocks", MetricKind::kGauge);

  // Rejection is against the watermark *before* this arrival moves any
  // clock: buffered blocks at or beyond it are still unadmitted, so the
  // canonical order can absorb anything at ts >= watermark — but a block
  // below it may already have admitted successors, and applying it now
  // would diverge from in-order delivery.
  double prev_wm = 0.0;
  const bool had_prev = CurrentWatermark(&prev_wm);
  if (had_prev && block.timestamp < prev_wm) {
    ++late_dropped_;
    metrics.Increment(kLateDropped);
    // The drop count is part of the durable state: re-commit (same arrival
    // index, keyed overwrite) so a kill right after the rejection doesn't
    // resurrect the counter at its pre-drop value.
    if (store_ != nullptr && config_.checkpoint_every > 0) {
      DOD_RETURN_IF_ERROR(CommitCheckpoint());
    }
    return Status::OutOfRange(
        "StreamingDetector::Ingest: block at ts " +
        std::to_string(block.timestamp) + " is behind the watermark " +
        std::to_string(prev_wm) + " (lateness " +
        std::to_string(config_.watermark.lateness) +
        "); rejected as late, window unchanged");
  }

  // Register the arrival: advance the clock and park the block at its
  // canonical (timestamp, arrival) position.
  if (!saw_arrival_ || block.timestamp > clock_) clock_ = block.timestamp;
  saw_arrival_ = true;
  PendingBlock pending;
  pending.arrival = next_arrival_++;
  pending.block = block;
  reorder_.insert(std::upper_bound(reorder_.begin(), reorder_.end(), pending,
                                   CanonicalOrder),
                  std::move(pending));
  pending_ids_.insert(block.ids.begin(), block.ids.end());
  ++arrivals_;

  double wm = 0.0;
  result.has_watermark = CurrentWatermark(&wm);
  if (result.has_watermark) {
    result.watermark = wm;
    if (!had_prev || wm > prev_wm) metrics.Increment(kAdvances);
    DOD_RETURN_IF_ERROR(DrainReorderBuffer(wm, &result));
  }
  result.buffered = reorder_.size();
  metrics.SetMax(kBuffered, static_cast<double>(reorder_.size()));

  // Checkpoint cadence counts arrivals, not rounds: the reorder buffer
  // changes on every accepted block, rounds only on admissions — a kill
  // mid-reorder must restore the parked blocks too.
  if (store_ != nullptr && config_.checkpoint_every > 0 &&
      arrivals_ % config_.checkpoint_every == 0) {
    DOD_RETURN_IF_ERROR(CommitCheckpoint());
  }
  return result;
}

Result<IngestResult> StreamingDetector::Flush() {
  IngestResult result;
  if (!config_.watermark.enabled) return result;
  result.has_watermark = CurrentWatermark(&result.watermark);
  if (reorder_.empty()) return result;
  DOD_RETURN_IF_ERROR(
      DrainReorderBuffer(std::numeric_limits<double>::infinity(), &result));
  if (store_ != nullptr && config_.checkpoint_every > 0) {
    DOD_RETURN_IF_ERROR(CommitCheckpoint());
  }
  return result;
}

std::string StreamingDetector::JobKey() const {
  // Everything that shapes window state and verdicts goes in; num_threads
  // and kernel mode stay out (resuming under either produces byte-identical
  // deltas, like the batch fingerprint).
  PayloadWriter w;
  w.F64(config_.params.radius);
  w.U64(static_cast<uint64_t>(config_.params.min_neighbors));
  w.U64(config_.params.seed);
  w.U64(config_.window_blocks);
  w.F64(side_);
  w.U64(static_cast<uint64_t>(config_.grid_origin.dims()));
  for (int i = 0; i < config_.grid_origin.dims(); ++i) {
    w.F64(config_.grid_origin[i]);
  }
  w.String(config_.job_tag);
  // Folded in only when enabled so stores written before watermarks
  // existed (or by watermark-free runs) keep their byte-identical key.
  if (config_.watermark.enabled) {
    w.U8(1);
    w.F64(config_.watermark.lateness);
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(w.str())));
  return std::string("dod-stream-") + hex;
}

std::string StreamingDetector::JobKeyFor(const StreamingConfig& config) {
  return StreamingDetector(config).JobKey();
}

Status StreamingDetector::Checkpoint() {
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "StreamingDetector::Checkpoint: no checkpoint_dir configured");
  }
  return CommitCheckpoint();
}

Status StreamingDetector::CommitCheckpoint() {
  trace::Span span("durability", "stream_checkpoint");
  PayloadWriter w;
  w.U32(kStreamStateVersion);
  w.U64(round_);
  w.U32(static_cast<uint32_t>(dims_));
  // Resident blocks, oldest first.
  w.U64(blocks_.size());
  for (const std::vector<uint32_t>& block : blocks_) {
    w.U64(block.size());
    for (uint32_t slot : block) {
      w.U32(slots_[slot].stream_id);
      w.Raw((*window_)[slot], sizeof(double) * static_cast<size_t>(dims_));
      w.U32(slots_[slot].count);
      w.U8(slots_[slot].saturated);
    }
  }
  w.U64(outliers_.size());
  for (PointId id : outliers_) w.U32(id);
  // Watermark/reorder section — written unconditionally (empty when the
  // policy is off) so the layout never depends on configuration.
  w.U64(arrivals_);
  w.U64(late_dropped_);
  w.U8(saw_arrival_ ? 1 : 0);
  w.F64(clock_);
  w.U64(next_arrival_);
  w.U64(reorder_.size());
  for (const PendingBlock& pending : reorder_) {
    w.U64(pending.arrival);
    w.F64(pending.block.timestamp);
    // Buffered blocks carry their own dims: the window may not have
    // admitted a non-empty block yet (dims_ == 0) while arrivals wait.
    const uint32_t block_dims =
        static_cast<uint32_t>(pending.block.points.dims());
    w.U32(block_dims);
    w.U64(pending.block.ids.size());
    for (size_t i = 0; i < pending.block.ids.size(); ++i) {
      w.U32(pending.block.ids[i]);
      w.Raw(pending.block.points[static_cast<PointId>(i)],
            sizeof(double) * block_dims);
    }
  }

  // Snapshot first, latest-pointer second: a crash between the two leaves
  // the previous commit's pointer intact and the orphan snapshot is dead
  // space, never torn state. Watermark mode keys the snapshot by arrival
  // (the buffer changes without rounds advancing); in-order mode keys by
  // round, as before.
  const uint64_t task_index = config_.watermark.enabled ? arrivals_ : round_;
  if (task_index > CheckpointStore::kMaxTaskIndex) {
    // The manifest reader refuses larger indexes, so a commit here would
    // make resume silently restore an older snapshot.
    return Status::OutOfRange(
        std::string("StreamingDetector: checkpoint index ") +
        std::to_string(task_index) + " (" +
        (config_.watermark.enabled ? "arrivals" : "rounds") +
        ") exceeds the store's limit " +
        std::to_string(CheckpointStore::kMaxTaskIndex) +
        "; start a fresh checkpoint store");
  }
  DOD_RETURN_IF_ERROR(
      store_->CommitTask("stream", static_cast<int>(task_index), w.str()));
  PayloadWriter latest;
  latest.U64(task_index);
  return store_->CommitTask("latest", 0, latest.str());
}

Status StreamingDetector::RestoreLatest() {
  if (!store_->HasTask("latest", 0)) return Status::Ok();  // fresh store
  DOD_ASSIGN_OR_RETURN(std::string latest_bytes,
                       store_->LoadTask("latest", 0));
  PayloadReader latest(latest_bytes);
  uint64_t task_index = 0;
  DOD_RETURN_IF_ERROR(latest.U64(&task_index));
  DOD_RETURN_IF_ERROR(latest.ExpectDone());
  if (task_index > CheckpointStore::kMaxTaskIndex) {
    return Status::IoError("stream checkpoint: latest index " +
                           std::to_string(task_index) + " out of range");
  }
  DOD_ASSIGN_OR_RETURN(
      std::string bytes,
      store_->LoadTask("stream", static_cast<int>(task_index)));

  PayloadReader r(bytes);
  uint32_t version = 0;
  DOD_RETURN_IF_ERROR(r.U32(&version));
  if (version != kStreamStateVersion) {
    // Another writer's layout: refusing outright beats misparsing it. The
    // caller keeps the store intact for the build that wrote it.
    return Status::FailedPrecondition(
        "stream checkpoint version skew: snapshot version " +
        std::to_string(version) + ", this reader supports only " +
        std::to_string(kStreamStateVersion));
  }
  DOD_RETURN_IF_ERROR(r.U64(&round_));
  uint32_t dims = 0;
  DOD_RETURN_IF_ERROR(r.U32(&dims));
  if (dims > 0) DOD_RETURN_IF_ERROR(InitDims(static_cast<int>(dims)));

  uint64_t num_blocks = 0;
  DOD_RETURN_IF_ERROR(r.U64(&num_blocks));
  for (uint64_t b = 0; b < num_blocks; ++b) {
    uint64_t num_points = 0;
    DOD_RETURN_IF_ERROR(r.U64(&num_points));
    if (num_points > 0 && dims_ == 0) {
      return Status::IoError(
          "stream checkpoint: resident points in a window without dims");
    }
    std::vector<uint32_t> block;
    double coords[kMaxDimensions];
    for (uint64_t i = 0; i < num_points; ++i) {
      uint32_t id = 0;
      uint32_t count = 0;
      uint8_t saturated = 0;
      DOD_RETURN_IF_ERROR(r.U32(&id));
      DOD_RETURN_IF_ERROR(
          r.Raw(coords, sizeof(double) * static_cast<size_t>(dims_)));
      DOD_RETURN_IF_ERROR(r.U32(&count));
      DOD_RETURN_IF_ERROR(r.U8(&saturated));
      if (id_to_slot_.count(id) != 0) {
        return Status::IoError("stream checkpoint: duplicate resident id " +
                               std::to_string(id));
      }
      CellCoord key;
      if (!TryUniformCellKey(coords, dims_, origin_, side_, &key)) {
        return Status::IoError("stream checkpoint: resident id " +
                               std::to_string(id) +
                               " lies more than 2^30 cells from the grid "
                               "origin");
      }
      const uint32_t slot = AllocSlot(id, coords);
      slots_[slot].count = count;
      slots_[slot].saturated = saturated != 0 ? 1 : 0;
      cell_states_[OpenCell(key)].slots.push_back(slot);
      block.push_back(slot);
    }
    blocks_.push_back(std::move(block));
  }

  uint64_t num_outliers = 0;
  DOD_RETURN_IF_ERROR(r.U64(&num_outliers));
  outliers_.clear();
  for (uint64_t i = 0; i < num_outliers; ++i) {
    uint32_t id = 0;
    DOD_RETURN_IF_ERROR(r.U32(&id));
    auto it = id_to_slot_.find(id);
    if (it == id_to_slot_.end()) {
      return Status::IoError("stream checkpoint: flagged id " +
                             std::to_string(id) + " is not resident");
    }
    slots_[it->second].flagged = 1;
    outliers_.push_back(id);
  }
  if (!std::is_sorted(outliers_.begin(), outliers_.end())) {
    return Status::IoError("stream checkpoint: flagged ids not sorted");
  }

  DOD_RETURN_IF_ERROR(r.U64(&arrivals_));
  DOD_RETURN_IF_ERROR(r.U64(&late_dropped_));
  uint8_t saw_arrival = 0;
  DOD_RETURN_IF_ERROR(r.U8(&saw_arrival));
  saw_arrival_ = saw_arrival != 0;
  DOD_RETURN_IF_ERROR(r.F64(&clock_));
  if (!std::isfinite(clock_)) {
    return Status::IoError("stream checkpoint: non-finite watermark clock");
  }
  DOD_RETURN_IF_ERROR(r.U64(&next_arrival_));
  uint64_t num_pending = 0;
  DOD_RETURN_IF_ERROR(r.U64(&num_pending));
  for (uint64_t i = 0; i < num_pending; ++i) {
    PendingBlock pending;
    DOD_RETURN_IF_ERROR(r.U64(&pending.arrival));
    double timestamp = 0.0;
    uint32_t block_dims = 0;
    uint64_t num_points = 0;
    DOD_RETURN_IF_ERROR(r.F64(&timestamp));
    DOD_RETURN_IF_ERROR(r.U32(&block_dims));
    DOD_RETURN_IF_ERROR(r.U64(&num_points));
    if (block_dims < 1 || block_dims > kMaxDimensions) {
      return Status::IoError(
          "stream checkpoint: malformed reorder-buffer record");
    }
    StreamBlock block(static_cast<int>(block_dims));
    block.timestamp = timestamp;
    double coords[kMaxDimensions];
    for (uint64_t p = 0; p < num_points; ++p) {
      uint32_t id = 0;
      DOD_RETURN_IF_ERROR(r.U32(&id));
      DOD_RETURN_IF_ERROR(
          r.Raw(coords, sizeof(double) * static_cast<size_t>(block_dims)));
      block.Add(id, coords);
    }
    if (pending.arrival >= next_arrival_) {
      return Status::IoError(
          "stream checkpoint: reorder-buffer arrival sequence skew");
    }
    // A buffered block is admitted without another check, so it must pass
    // the arrival validation Ingest gave it, against the state restored so
    // far and the blocks buffered before it.
    const Status valid = ValidateArrival(block);
    if (!valid.ok()) {
      return Status::IoError("stream checkpoint: reorder-buffer block: " +
                             valid.message());
    }
    pending_ids_.insert(block.ids.begin(), block.ids.end());
    pending.block = std::move(block);
    reorder_.push_back(std::move(pending));
  }
  // Re-establish the canonical order instead of trusting record order — a
  // hostile snapshot must not be able to force an out-of-order admission.
  std::sort(reorder_.begin(), reorder_.end(), CanonicalOrder);
  DOD_RETURN_IF_ERROR(r.ExpectDone());

  // Cross-validate the restored summaries against the flagged set: a
  // saturated bound never sits below k at a round boundary, and a point is
  // flagged exactly when its exact count is below k. The same walk seeds
  // the saturated-point count that every later round keeps incrementally.
  const uint32_t k = static_cast<uint32_t>(config_.params.min_neighbors);
  for (const auto& entry : id_to_slot_) {
    const SlotState& state = slots_[entry.second];
    saturated_count_ += state.saturated;
    const bool valid = state.saturated != 0
                           ? state.count >= k && state.flagged == 0
                           : (state.count < k) == (state.flagged != 0);
    if (!valid) {
      return Status::IoError("stream checkpoint: summary for id " +
                             std::to_string(state.stream_id) +
                             " is inconsistent with its verdict");
    }
  }
  return Status::Ok();
}

}  // namespace dod
