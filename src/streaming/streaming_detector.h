// Copyright 2026 The DOD Authors.
//
// Streaming outlier service: a long-running detector over a sliding window
// of ingested blocks, updating verdicts incrementally instead of from
// scratch.
//
// The batch pipeline (core/pipeline.h) answers "which points of this
// dataset are outliers" by recomputing everything. Production traffic is a
// stream: blocks of points arrive, old blocks expire, and between two
// rounds only a small neighborhood of the window actually changes. The
// StreamingDetector exploits that:
//
//   * Window state lives in a uniform grid keyed exactly like the batch
//     detectors' grids and looked up through the same CellIndex
//     (detection/cell_key.h): one appendable/expirable point segment per
//     cell (slot indices into a slot-recycling window dataset) plus a
//     per-point verdict summary — the collapsed
//     neighbor-count state |N_r(p)| >= k each point carried out of its
//     last evaluation.
//
//   * Feed(block) appends the block's points, expires the oldest blocks
//     once more than window_blocks are resident, and computes the
//     dirty-cell set: every resident cell within the supporting ring of a
//     touched cell. With cell side s, a neighbor within distance r is at
//     most ceil(r/s) cells away in Chebyshev distance, so updating the
//     touched cells plus that ring is exact — untouched cells cannot have
//     gained or lost a neighbor.
//
//   * Every resident point carries its neighbor-count summary across
//     rounds: the exact |N_r(p)|, or a saturated lower bound once counting
//     stopped at k + 32 (the detector early-exit win, preserved). A round
//     then costs O(new block × ring), in one visit per dirty cell:
//     kernel tiles count the cell's residents against the appended points
//     of the touched cells around it (increments — and, as column counts,
//     the appended points' old neighbors) and against the evicted points
//     (decrements), each resident's summary and verdict take the net
//     change in place, and the cell's own appended points count the
//     appended points around them, so every appended point gets its exact
//     first count in the same pass. Only saturated points whose bound
//     dropped below k re-count, each against its staged ring. Counts are
//     exact integers, so verdicts — and therefore deltas — are
//     byte-identical to a from-scratch batch run over the current window
//     for every thread count and kernel mode.
//
//   * The emitted OutlierDelta is the verdict diff: ids newly flagged,
//     ids newly cleared (verdict flips and flagged points that expired),
//     and per-round stats. Applying deltas in order reconstructs the
//     current outlier set exactly.
//
// Out-of-order input: real ingest is not ordered. With a WatermarkPolicy
// enabled, Ingest(block) parks arrivals in a reorder buffer instead of
// admitting them immediately. One clock holds the largest timestamp
// delivered so far; the watermark is
//
//     clock − lateness
//
// and a buffered block is admitted — running the exact Feed round an
// in-order delivery would have run — once the watermark passes strictly
// beyond its timestamp, in canonical (timestamp, arrival) order. A block
// arriving with ts < watermark is later than the lateness bound: it is
// rejected with kOutOfRange and counted in stream.late_dropped, never
// silently applied.
//
// The correctness contract: every arrival permutation within the
// lateness bound admits the same canonical block sequence, so the
// admitted-order delta stream — and the final flagged set — is
// byte-identical to in-order delivery (tests/streaming_order_test.cc
// fuzzes this against the batch oracle).
//
// Durability: with checkpoint_dir set, the full window state (resident
// blocks, ids, coordinates, count summaries, flagged set, round counter,
// plus the reorder buffer and the clock when a watermark policy is
// active) is committed to a CheckpointStore every checkpoint_every rounds
// (watermark mode: every checkpoint_every arrivals, so a kill mid-reorder
// restores the buffered blocks too); Create(resume=true) restores the
// latest committed round and the service replays the rest of the schedule
// to the same verdicts and deltas as an uninterrupted run. The snapshot
// has one layout (version 5); any other version is refused as version
// skew.
//
// Observability: every round emits a "stream"/"round" trace span, one
// "summary_update" and one "summary_recount" span, the stream.* metrics
// family (rounds, dirty-cell fraction, delta sizes, round latency
// histogram) and the stream.summary.* family (pair/point totals,
// saturated-point gauge, recount-queue histogram). tools/validate_trace
// checks the schema with --require_streaming.

#ifndef DOD_STREAMING_STREAMING_DETECTOR_H_
#define DOD_STREAMING_STREAMING_DETECTOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/dataset.h"
#include "common/point.h"
#include "common/status.h"
#include "detection/cell_key.h"
#include "detection/detector.h"
#include "durability/checkpoint.h"
#include "kernels/soa_block.h"
#include "runtime/parallel_executor.h"

namespace dod {

// Bounded-lateness admission policy for out-of-order streams. Disabled
// (the default), Ingest admits every block immediately in arrival order —
// the PR 7 in-order contract, byte for byte.
struct WatermarkPolicy {
  bool enabled = false;
  // Bounded lateness L, in timestamp units: a block is admissible while
  // its timestamp is >= the current watermark (max-seen - L); anything
  // older may already have admitted successors and is rejected with
  // kOutOfRange. Must be >= 0 and finite.
  double lateness = 0.0;
};

struct StreamingConfig {
  // Outlier definition + kernel mode. No count depends on probe order, so
  // params.seed only enters the checkpoint job key.
  DetectionParams params;
  // Threads sharing a round's dirty cells, one contiguous chunk of the
  // dirty list each (and the saturated re-counts); <= 0 uses all hardware
  // threads, 1 runs inline, at most kMaxThreads. Deltas are byte-identical
  // for every thread count.
  int num_threads = 1;

  // Count-based window: keep at most this many resident (non-empty)
  // blocks; feeding past the limit expires the oldest blocks in the same
  // round. 0 = off: nothing ever expires.
  size_t window_blocks = 0;

  // Out-of-order admission (see WatermarkPolicy above). Disabled keeps
  // the in-order Feed contract unchanged.
  WatermarkPolicy watermark;

  // Grid cell side; 0 defaults to params.radius. Smaller sides mean
  // tighter dirty sets but a wider supporting ring R = ceil(radius / side)
  // cells per side, walked once per touched cell every round. Create (and
  // the first block, once the dims are known) refuses with
  // kInvalidArgument a side whose ring spans more than 2^20 cells, i.e.
  // (2R + 1)^dims > 2^20 — in 2-D, R <= 511, so side >= radius / 511.
  double cell_side = 0.0;
  // Grid origin. Unlike the batch detectors (which anchor at the partition
  // bounds), the streaming grid must be anchored independently of window
  // contents or cell identities would shift between rounds. A
  // default-constructed (dims-0) point means the all-zero origin.
  Point grid_origin;

  // Durability: empty = no checkpointing. With a dir set, the window state
  // commits every `checkpoint_every` rounds (0 = only on Checkpoint()).
  std::string checkpoint_dir;
  bool resume = false;
  uint64_t checkpoint_every = 1;
  // Extra caller identity folded into the checkpoint job key (e.g. the
  // replay schedule's parameters); resume refuses a store written under a
  // different key with kFailedPrecondition.
  std::string job_tag;
};

// One ingested block: caller-assigned stable ids (unique among resident
// points) plus their coordinates. The timestamp orders arrivals under a
// watermark policy; in-order Feed ignores it.
struct StreamBlock {
  explicit StreamBlock(int dims) : points(dims) {}

  void Add(PointId id, const double* p) {
    ids.push_back(id);
    points.Append(p);
  }

  std::vector<PointId> ids;
  Dataset points;
  double timestamp = 0.0;
};

// A resident point's neighbor-count summary: the exact |N_r(p)| (self
// excluded) when !saturated; when saturated, a certified lower bound on it
// that is never below min_neighbors at a round boundary.
struct NeighborCountSummary {
  uint32_t count = 0;
  bool saturated = false;
};

struct StreamRoundStats {
  // 1-based round number (count of completed Feed calls).
  uint64_t round = 0;
  size_t appended_points = 0;
  size_t expired_points = 0;
  size_t resident_points = 0;
  size_t resident_cells = 0;
  // Dirty cells this round (touched + supporting ring).
  size_t dirty_cells = 0;
  // dirty_cells / resident_cells after the update (0 when no cells).
  double dirty_fraction = 0.0;
  // Points fully counted (appended) or re-counted (saturation bound
  // dropped below k), and the pair totals of the incremental insert/expiry
  // counting passes.
  size_t full_counted_points = 0;
  size_t recounted_points = 0;
  uint64_t insert_pairs = 0;
  uint64_t expiry_pairs = 0;
  // Wall time of the Feed call (timing; exempt from determinism).
  double round_seconds = 0.0;
};

// The verdict delta of one round. Outliers after the round =
// (outliers before) + newly_flagged - newly_cleared.
struct OutlierDelta {
  std::vector<PointId> newly_flagged;  // ascending
  std::vector<PointId> newly_cleared;  // ascending; flips and expired
  StreamRoundStats stats;
};

// The outcome of one Ingest call: zero or more rounds were admitted from
// the reorder stage (their deltas in admission order), the rest of the
// arrivals wait buffered behind the watermark. With watermarks disabled
// every Ingest admits exactly its own block.
struct IngestResult {
  std::vector<OutlierDelta> admitted;
  size_t buffered = 0;        // blocks still parked in the reorder buffer
  bool has_watermark = false;  // false until the first arrival
  double watermark = 0.0;      // clock - lateness
};

class StreamingDetector {
 public:
  // Validates the configuration, opens the checkpoint store when
  // configured, and (with resume) restores the latest committed round.
  static Result<std::unique_ptr<StreamingDetector>> Create(
      const StreamingConfig& config);

  // Ingests one block and returns the verdict delta. Rejects duplicate ids
  // (within the block or against resident points), dimension mismatches,
  // and non-finite coordinates with kInvalidArgument; on error the window
  // is unchanged. An empty block with no expiries is a no-op delta (the
  // round still counts). In-order admission only: with a watermark policy
  // enabled this is kFailedPrecondition — use Ingest.
  Result<OutlierDelta> Feed(const StreamBlock& block);

  // Accepts one arrival. With watermarks disabled this is Feed wrapped in
  // a single-delta IngestResult. With the policy enabled the block joins
  // the reorder buffer (kInvalidArgument on bad blocks, kOutOfRange +
  // stream.late_dropped when its timestamp is already more than
  // `lateness` behind the clock; the window is unchanged on error), the
  // watermark advances, and every buffered block the watermark passed is
  // admitted in canonical (timestamp, arrival) order — their deltas come
  // back in admission order.
  Result<IngestResult> Ingest(const StreamBlock& block);

  // Drains the reorder buffer unconditionally (end of stream): every
  // buffered block is admitted in canonical order as if the watermark had
  // passed it. No-op with watermarks disabled or an empty buffer.
  Result<IngestResult> Flush();

  // Commits the window state to the checkpoint store now. kFailedPrecondition
  // when no checkpoint_dir was configured.
  Status Checkpoint();

  // The checkpoint job key this configuration maps to. Exposed for tests
  // and tooling that write or inspect a store out of band (e.g. the
  // snapshot version-compatibility matrix).
  static std::string JobKeyFor(const StreamingConfig& config);

  // Completed Feed rounds (restored rounds included).
  uint64_t rounds() const { return round_; }
  // Blocks accepted by Ingest (admitted + still buffered; restored
  // arrivals included, rejected blocks excluded). Equals rounds() with
  // watermarks disabled: a resuming replay driver continues at this
  // offset in its arrival schedule.
  uint64_t arrivals() const { return arrivals_; }
  // Blocks rejected with kOutOfRange for arriving beyond the lateness
  // bound (restored count included).
  uint64_t late_dropped() const { return late_dropped_; }
  // Blocks parked in the reorder buffer.
  size_t buffered_blocks() const { return reorder_.size(); }
  size_t resident_points() const { return id_to_slot_.size(); }
  size_t resident_cells() const { return cells_.size(); }
  // Current outlier ids, ascending. Byte-identical to a from-scratch batch
  // run over the window contents.
  const std::vector<PointId>& outliers() const { return outliers_; }
  // Resident points whose summary is a saturated lower bound rather than
  // an exact count. O(1): the count is maintained wherever a resident
  // point's saturated bit appears, changes or leaves the window.
  size_t saturated_points() const { return saturated_count_; }
  // The neighbor-count summary resident point `id` carries; nullopt when
  // `id` is not resident.
  std::optional<NeighborCountSummary> SummaryOf(PointId id) const;

 private:
  // A resident cell's state, at its cell id in cell_states_ (its
  // coordinate at the same id in cell_coords_). Ids are stable while the
  // cell is resident — in particular for a whole summary pass — and a
  // cell that empties returns its id to free_cells_ for the next new cell.
  struct CellState {
    // Appendable/expirable point segment: slot indices, append order. The
    // last `fresh` entries were appended this round (set by AppendBlock,
    // reset by the SummaryUpdate pass); the rest are old residents.
    std::vector<uint32_t> slots;
    uint32_t fresh = 0;
    // The summary pass that last found this cell dirty and the cell's
    // index in that pass's dirty list (meaningful while stamp equals
    // pass_stamp_).
    uint32_t stamp = 0;
    uint32_t dirty_index = 0;
  };
  // CellIndex key accessor: cell id -> resident coordinate.
  struct CellKeys {
    const std::vector<CellCoord>* coords;
    const CellCoord& operator()(uint32_t id) const { return (*coords)[id]; }
  };
  struct SlotState {
    PointId stream_id = 0;
    // Verdict summary from the point's last evaluation (|N_r| < k).
    uint8_t flagged = 0;
    // Neighbor-count summary: exact |N_r| when saturated == 0; a certified
    // lower bound — never below min_neighbors at a round boundary — when
    // saturated != 0.
    uint32_t count = 0;
    uint8_t saturated = 0;
  };
  // One appended or evicted point of the round and its cell's id (ids
  // freed by expiry are reused only by the next round's appends).
  struct RoundPoint {
    uint32_t cell = 0;
    uint32_t slot = 0;
    bool evicted = false;
  };
  // One touched cell of the round: its appended and evicted points as
  // half-open ranges of RoundBuffers::appended_soa / evicted_soa.
  struct TouchedGroup {
    uint32_t cell = 0;  // cell id
    uint32_t ins_begin = 0;
    uint32_t ins_end = 0;
    uint32_t ev_begin = 0;
    uint32_t ev_end = 0;
  };
  // One cell's saturated re-count work: PassChunk::target_locals
  // [locals_begin, locals_end) are positions in the cell's slot segment,
  // ascending; ring_soa[ring_begin, ring_end) holds the cell and its
  // supporting ring.
  struct TargetCell {
    uint32_t cell = 0;  // cell id
    uint32_t locals_begin = 0;
    uint32_t locals_end = 0;
    uint32_t ring_begin = 0;
    uint32_t ring_end = 0;
    // Ring position of the target cell's first resident; its local j sits
    // at center_begin + j.
    uint32_t center_begin = 0;
  };
  // One dirty-pass chunk's outputs: flips, pair stats and recounted_points
  // (in `delta`), queued re-counts, and first-count partials per
  // appended_soa position. Chunk 0 receives the merged re-counts and counts.
  struct PassChunk {
    OutlierDelta delta;
    std::vector<TargetCell> targets;
    std::vector<uint32_t> target_locals;
    std::vector<uint32_t> first_counts;
  };
  // The summary pass's per-round buffers. Cleared every round, never
  // shrunk, so a steady stream reuses one allocation per buffer.
  struct RoundBuffers {
    explicit RoundBuffers(int dims)
        : appended_soa(dims), evicted_soa(dims), ring_soa(dims) {}
    // The round's appended and evicted points. Expiry never takes the
    // round's own block, so every appended point stays resident and gets
    // a first count.
    std::vector<RoundPoint> touched;
    // Touched groups in cell-id order, and their points laid out group by
    // group (SoA ids are window slots).
    std::vector<TouchedGroup> groups;
    SoABlock appended_soa;
    SoABlock evicted_soa;
    // Dirty cell ids in discovery order; (dirty index, group index) edges
    // in discovery order, then laid out CSR by dirty cell: the groups of
    // dirty cell i are edge_group[edge_begin[i], edge_begin[i + 1]).
    std::vector<uint32_t> dirty;
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    std::vector<uint32_t> edge_begin;
    std::vector<uint32_t> edge_group;
    // Dirty-pass chunks (at least one); re-count rings and clamped counts
    // (parallel to chunks[0].target_locals).
    std::vector<PassChunk> chunks;
    SoABlock ring_soa;
    std::vector<uint32_t> recounts;
  };
  // One arrival parked in the reorder stage, waiting for the watermark.
  struct PendingBlock {
    uint64_t arrival = 0;  // arrival sequence; canonical tiebreak
    StreamBlock block{1};
  };
  // The canonical admission order: (timestamp, arrival).
  static bool CanonicalOrder(const PendingBlock& a, const PendingBlock& b);

  explicit StreamingDetector(const StreamingConfig& config);

  Status InitDims(int dims);
  Status ValidateBlock(const StreamBlock& block) const;
  uint32_t AllocSlot(PointId id, const double* p);
  CellCoord KeyOf(const double* p) const;
  // Id of the resident cell at `coord`, or CellIndex::kNone.
  uint32_t FindCell(const CellCoord& coord) const {
    return cells_.Find(coord, CellKeys{&cell_coords_});
  }
  // Id of the resident cell at `coord`, opening an empty one (on a
  // recycled id when one is free) on first sight.
  uint32_t OpenCell(const CellCoord& coord);

  // Appends the block's points into slots/cells (no detection) and
  // records each one in buffers_.touched.
  void AppendBlock(const StreamBlock& block);
  // Pops the blocks past window_blocks off the window's front, recording
  // each freed slot in buffers_.touched
  // (its window coordinates stay readable until the next round's appends
  // recycle it) and each flagged id leaving the window in
  // `expired_flagged`; returns the number of expired points.
  size_t ExpireBlocks(std::vector<PointId>* expired_flagged);

  // One admitted round: the Feed body without the validation and the
  // per-round checkpoint policy (Feed and the reorder drain wrap it with
  // their own). `block` must have passed ValidateBlock (Feed) or
  // ValidateArrival (Ingest and RestoreLatest, for buffered blocks).
  Result<OutlierDelta> AdmitBlock(const StreamBlock& block);
  // Arrival-time validation for the reorder stage: everything
  // ValidateBlock checks, plus a finite timestamp, id uniqueness against
  // the buffered blocks and, while the window has no dims, dims that agree
  // with theirs. What it accepts stays admissible until the drain.
  Status ValidateArrival(const StreamBlock& block) const;
  // clock - lateness; false until the first arrival.
  bool CurrentWatermark(double* watermark) const;
  // Admits every buffered block with timestamp < `bound` (canonical
  // order) and appends the deltas to `result`.
  Status DrainReorderBuffer(double bound, IngestResult* result);

  // One round's detection over the round's appended and evicted points
  // (buffers_.touched): groups them by touched cell, walks each group's
  // supporting ring once to collect the dirty cells and the (dirty cell,
  // group) edges, then visits every dirty cell once, in min(threads,
  // dirty) contiguous chunks of the dirty list (a plain loop at one
  // thread). Saturated points whose bound fell below k re-count via
  // CountTargets. Applies verdict flips to `delta` and fills its summary
  // stats and dirty_cells.
  Status SummaryUpdate(OutlierDelta* delta);

  // The one visit of dirty cells [begin, end): tiles, net changes applied
  // in place (flip, certified bound or re-count queue), pair stats, the
  // own appended points' first counts, `fresh` reset. Writes only these
  // cells' slot and cell states and `*out`.
  void UpdateDirtyCells(size_t begin, size_t end, PassChunk* out);

  // Capped counts for the saturated points queued by the dirty pass (each
  // against its cell's staged ring, executor fan-out, sequential fold);
  // writes summaries and applies verdict flips to `delta`.
  Status CountTargets(OutlierDelta* delta);

  // Stores `count` as the slot's summary — clamped at the saturation cap,
  // so it never depends on how far a capped kernel ran — and applies the
  // resulting verdict flip to `delta`.
  void SetSummary(uint32_t slot, uint32_t count, OutlierDelta* delta);

  void ApplyDeltaToOutlierSet(const OutlierDelta& delta);
  void RecordRound(const OutlierDelta& delta);

  std::string JobKey() const;
  Status CommitCheckpoint();
  Status RestoreLatest();

  StreamingConfig config_;
  double side_ = 0.0;
  int ring_ = 1;
  int dims_ = 0;  // 0 until the first non-empty block (or restore)
  double origin_[kMaxDimensions] = {0.0};

  std::optional<Dataset> window_;  // slot-indexed storage, rows recycled
  std::vector<SlotState> slots_;
  std::vector<uint32_t> free_slots_;
  std::unordered_map<PointId, uint32_t> id_to_slot_;
  // Resident slots with saturated != 0 (see saturated_points()).
  size_t saturated_count_ = 0;
  // Resident (non-empty) cells: the index from coordinate to cell id and
  // the dense per-id arrays it points into, ids of emptied cells queued
  // for reuse.
  CellIndex cells_;
  std::vector<CellCoord> cell_coords_;
  std::vector<CellState> cell_states_;
  std::vector<uint32_t> free_cells_;
  // Resident blocks' slots, oldest first.
  std::deque<std::vector<uint32_t>> blocks_;
  uint64_t round_ = 0;
  std::vector<PointId> outliers_;

  // Reorder stage (watermark mode; all empty/zero when disabled).
  std::deque<PendingBlock> reorder_;  // canonical admission order
  std::unordered_set<PointId> pending_ids_;  // ids parked in reorder_
  double clock_ = 0.0;  // largest timestamp seen (valid once saw_arrival_)
  bool saw_arrival_ = false;
  uint64_t next_arrival_ = 0;
  uint64_t arrivals_ = 0;
  uint64_t late_dropped_ = 0;

  // Summary-pass buffers (re-created with the dims by InitDims) and the
  // pass counter its dirty stamps compare against.
  RoundBuffers buffers_{1};
  uint32_t pass_stamp_ = 0;

  std::unique_ptr<ParallelExecutor> executor_;
  std::unique_ptr<CheckpointStore> store_;
};

}  // namespace dod

#endif  // DOD_STREAMING_STREAMING_DETECTOR_H_
