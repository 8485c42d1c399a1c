// Copyright 2026 The DOD Authors.
//
// A single-process MapReduce execution engine.
//
// The engine implements the data-flow contract of Fig. 2 in the paper:
// mappers consume input splits and emit (key, value) records; records are
// hash- or plan-partitioned to reduce tasks, sorted and grouped by key; each
// reduce task processes its groups independently with no communication to
// other reducers (shared-nothing, no synchronization).
//
// RunMapReduce runs four named phases, whose boundaries are the job's
// timing points (JobStats wall times, the Fig. 10 stage split):
//  - map (internal::MapPhase): map tasks route every emitted record into
//    per-reduce-task buckets, spilled as sorted disk runs past a threshold
//    (mapreduce/spill.h);
//  - shuffle handoff (ShuffleHandoff): every reduce task gets its ordered
//    segment list — those buckets and runs, in (split, flush) order — and
//    a worker-group placement hint;
//  - reduce (ReducePhase): each reduce task groups its segments
//    (mapreduce/shuffle.h) and reduces the groups;
//  - commit (CommitJob): output in task order, stage times, metrics.
// Map and reduce tasks share one durable lifecycle (RunDurably): restore-
// or-run, commit, checkpoint, optional injected crash.
//
// Every task is actually executed, and its duration measured. Stage times
// are then derived by scheduling the measured task costs onto the cluster's
// slots (see cluster.h). This yields the end-to-end execution time metric
// the paper reports while running deterministically on one machine. The
// real wall-clock time of each phase is measured alongside and reported in
// JobStats, so simulated makespan and actual speedup sit side by side.
//
// Tasks really run concurrently: the map and reduce phases fan out over a
// parallel-for executor (runtime/parallel_executor.h), with
// JobSpec::num_threads workers (<= 0 = all hardware threads; 1 reproduces
// the historical sequential loop exactly). Output is byte-identical for
// every thread count: each task stages its results privately and the
// engine commits the staged results after the phase barrier in
// task-index order, while counters and stats merge order-independently
// (see job_stats.h). Consequently Mapper/Reducer instances are invoked
// concurrently for *distinct* tasks — user code must be reentrant: keep
// per-call scratch on the stack, treat shared inputs as read-only.
//
// Execution is fault tolerant: every task runs as a sequence of attempts
// under a TaskRunner, with a bounded retry budget, optionally under a
// deterministic FaultInjector. Attempts stage their output and commit only
// on success, so committed job output is identical to a fault-free run; a
// task that exhausts its retry budget turns the job into a structured
// error instead of aborting the process.

#ifndef DOD_MAPREDUCE_JOB_H_
#define DOD_MAPREDUCE_JOB_H_

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "common/timer.h"
#include "durability/checkpoint.h"
#include "durability/memory_budget.h"
#include "durability/payload.h"
#include "durability/run_control.h"
#include "mapreduce/cluster.h"
#include "mapreduce/counters.h"
#include "mapreduce/fault_injection.h"
#include "mapreduce/job_stats.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/spill.h"
#include "mapreduce/task_runner.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "runtime/parallel_executor.h"

namespace dod {

// Receives the records a mapper emits.
template <typename K, typename V>
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void Emit(const K& key, const V& value) = 0;
};

// User map function: consumes input split `split_index` (the mapper knows
// how to fetch its own input, e.g. from a BlockStore) and emits records.
// Implement Map when the task cannot fail, or override TryMap to surface
// task-level errors to the engine (which retries, then propagates). Map
// may be called several times for the same split (task re-execution) and
// concurrently for different splits (parallel execution), so it must be
// deterministic, free of external side effects, and must not share
// mutable scratch state between calls.
template <typename K, typename V>
class Mapper {
 public:
  virtual ~Mapper() = default;
  virtual void Map(size_t split_index, Emitter<K, V>& out) {
    (void)split_index;
    (void)out;
    DOD_CHECK_MSG(false, "Mapper: implement Map() or TryMap()");
  }
  // Status-returning variant the engine invokes; defaults to adapting Map.
  virtual Status TryMap(size_t split_index, Emitter<K, V>& out) {
    Map(split_index, out);
    return Status::Ok();
  }
};

// User reduce function: one call per key group. `values` may be consumed
// destructively. Results go to `out`; `counters` aggregates job counters.
// Like Map, Reduce may re-run on the same group after an attempt failure,
// and runs concurrently for groups of *different* reduce tasks (groups
// within one task stay sequential) — the same reentrancy rules apply.
template <typename K, typename V, typename Out>
class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual void Reduce(const K& key, std::vector<V>& values,
                      std::vector<Out>& out, Counters& counters) {
    (void)key;
    (void)values;
    (void)out;
    (void)counters;
    DOD_CHECK_MSG(false, "Reducer: implement Reduce() or TryReduceTask()");
  }
  // Task-at-a-time variant the engine invokes: one call per reduce-task
  // attempt, receiving every key group of the task at once. Override to
  // read group values in place (zero-copy), to build per-task shared state
  // (e.g. one probe arena serving all groups) or to surface task-level
  // errors. The default adapts the per-group contract: each group's values
  // are copied into scratch (the shuffle backing must survive an attempt
  // retry) and handed to Reduce. The same reentrancy rules apply — one
  // call services one task, distinct tasks run concurrently.
  virtual Status TryReduceTask(const GroupedView<K, V>& groups,
                               std::vector<Out>& out, Counters& counters) {
    std::vector<V> values;
    for (size_t g = 0; g < groups.num_groups(); ++g) {
      const size_t group_size = groups.size(g);
      values.clear();
      values.reserve(group_size);
      for (size_t i = 0; i < group_size; ++i) {
        values.push_back(groups.value(g, i));
      }
      Reduce(groups.key(g), values, out, counters);
    }
    return Status::Ok();
  }
};

struct JobSpec {
  // Number of reduce tasks (the routing callable must return values in
  // [0, num_reduce_tasks)).
  int num_reduce_tasks = 1;
  // Worker threads executing map/reduce tasks: <= 0 uses every hardware
  // thread, 1 runs the sequential inline path (no workers); at most
  // kMaxThreads.
  int num_threads = 0;
  ClusterSpec cluster;
  // Input bytes of each split; charged as HDFS scan time against the
  // owning map task at cluster.disk_read_mbps_per_slot. Empty = no charge.
  std::vector<uint64_t> split_input_bytes;
  // Expected records emitted per split (0 / absent = unknown); used to
  // pre-size each map task's shuffle buckets so emission never regrows.
  std::vector<uint64_t> split_record_hints;
  // Reduce-side grouping strategy (see mapreduce/shuffle.h). Both modes
  // commit byte-identical job output; kSorted is the escape hatch.
  ShuffleMode shuffle = ShuffleMode::kColumnar;
  // Spill-to-disk shuffle (see mapreduce/spill.h). Orthogonal to the
  // grouping mode: a map task whose emitted bytes cross the (budget-wired)
  // threshold flushes its buckets as sorted runs, and reduce grouping reads
  // runs and memory segments back together — job output stays
  // byte-identical to the all-in-memory shuffle. Disabled when dir is
  // empty. Requires trivially copyable K/V (enforced with a structured
  // error, like checkpointing).
  SpillPolicy spill;
  // Fault injection (disabled by default) and the attempt budget per task,
  // including the first attempt (Hadoop mapreduce.map.maxattempts; >= 1).
  FaultSpec faults;
  int max_task_attempts = 4;

  // ---- Durable execution (all optional; pointers are borrowed and must
  // outlive the job) -----------------------------------------------------

  // Committed-task checkpoint store. When set, every map/reduce task's
  // committed output (plus its stats delta and slot costs) is durably
  // recorded right after commit; with `resume` also set, tasks already
  // recorded are restored instead of re-executed, and the job's output and
  // stats come out byte-identical to an uninterrupted run. Requires
  // trivially copyable K/V/Out (enforced with a structured error); a
  // checkpoint that fails to load is logged, counted, and the task simply
  // re-runs.
  CheckpointStore* checkpoint = nullptr;
  bool resume = false;
  // Deadline/cancellation control, checked before every task attempt and
  // between phases; a fired condition aborts with kDeadlineExceeded /
  // kCancelled (see `partial_stats`).
  const RunControl* control = nullptr;
  // Memory budget. Deterministically degrades the columnar shuffle — to
  // the sorted path when its scratch would not fit (counted in
  // mr.shuffle.fallback.budget), or, with spilling enabled, to spilled
  // input when only scratch plus the resident input would not
  // (mr.shuffle.fallback.spill); both result-identical. Also skips
  // shuffle-bucket pre-reserves that would not fit, and turns allocation
  // failures inside attempts into kResourceExhausted.
  MemoryBudget* memory = nullptr;
  // When set, a failing job merges the stats of all work that did complete
  // into *partial_stats before returning its error — partial-progress
  // reporting for deadline, cancellation, and budget aborts.
  JobStats* partial_stats = nullptr;
  // Optional hooks appending / restoring caller-owned per-task durable
  // state on the checkpoint payloads (e.g. the detection pipeline's
  // partition-profile records, which otherwise live outside JobStats
  // deltas and would be lost across a resume).
  std::function<void(TaskPhase, int, PayloadWriter&)> checkpoint_extra;
  std::function<Status(TaskPhase, int, PayloadReader&)> restore_extra;
};

template <typename Out>
struct JobOutput {
  std::vector<Out> output;
  JobStats stats;
};

namespace internal {

template <typename K, typename V>
using Buckets = std::vector<std::vector<std::pair<K, V>>>;

// Reduce task r's input is SegmentLists[r] (see ShuffleHandoff).
template <typename K, typename V>
using SegmentLists = std::vector<std::vector<ShuffleSegment<K, V>>>;

// The wire size charged per shuffled record when the job passes none.
template <typename K, typename V>
struct PairWireBytes {
  size_t operator()(const K&, const V&) const {
    return sizeof(K) + sizeof(V);
  }
};

// Registers the durability.* schema, so it is present in every metrics
// dump whether or not the job checkpoints, aborts or degrades. The
// lifecycle updates these by name: they happen at most once per task.
inline void RegisterDurabilityMetrics() {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  for (const char* counter : {"durability.checkpoint.tasks_written",
                              "durability.checkpoint.tasks_resumed",
                              "durability.checkpoint.bytes_written",
                              "durability.checkpoint.load_failures",
                              "durability.control.aborts",
                              "durability.memory.reserve_skipped"}) {
    metrics.Id(counter, MetricKind::kCounter);
  }
  metrics.Id("durability.checkpoint.write_seconds", MetricKind::kHistogram);
  metrics.Id("durability.memory.peak_bytes", MetricKind::kGauge);
}

// One map task: the winning attempt's shuffle output, its stats delta and
// slot costs.
template <typename K, typename V>
struct MapTaskState {
  using Record = std::pair<K, V>;
  // Payloads store records as raw bytes, sound only for trivially copyable
  // K and V. The check is not on pair<K, V>: pair's user-provided
  // assignment operator makes the pair formally non-trivially-copyable even
  // when its representation — all the byte copy touches — is two trivially
  // copyable members.
  static constexpr bool kCheckpointable =
      std::is_trivially_copyable_v<K> && std::is_trivially_copyable_v<V>;

  Buckets<K, V> staging;
  Buckets<K, V> committed;
  // Spilled shuffle: the winning attempt's run descriptors, in flush
  // order. A task spills everything or nothing (TaskSpiller::Finish), so
  // non-empty runs imply empty committed buckets.
  std::vector<SpillRunInfo> runs;
  // Shuffle volume of the running attempt, merged into `stats` on commit so
  // failed attempts leave no trace in the data-flow accounting.
  uint64_t attempt_records = 0;
  uint64_t attempt_bytes = 0;
  JobStats stats;
  std::vector<double> slot_costs;

  // Checkpoint payload body: a spilled flag, then either the run
  // descriptors (the runs themselves are already on disk and survive a
  // crash) or the committed buckets.
  void Save(PayloadWriter& payload) const {
    payload.U8(runs.empty() ? 0 : 1);
    if (!runs.empty()) {
      payload.U64(runs.size());
      for (const SpillRunInfo& run : runs) {
        payload.String(run.file);
        payload.U32(run.partition);
        payload.U64(run.records);
        payload.U64(run.offset);
        payload.U64(run.bytes);
        payload.U64(run.checksum);
        payload.U64(run.min_key);
        payload.U64(run.max_key);
      }
      return;
    }
    payload.U64(committed.size());
    for (const auto& bucket : committed) {
      payload.U64(bucket.size());
      payload.Raw(bucket.data(), bucket.size() * sizeof(Record));
    }
  }

  // Restored run files are re-registered with `gc`, the resumed job's
  // spill sweeper.
  Status Restore(PayloadReader& reader, size_t num_reduce, SpillGc* gc) {
    uint8_t spilled_flag = 0;
    DOD_RETURN_IF_ERROR(reader.U8(&spilled_flag));
    if (spilled_flag > 1) {
      return Status::IoError("map checkpoint has unknown layout");
    }
    committed.assign(num_reduce, typename Buckets<K, V>::value_type());
    if (spilled_flag == 1) {
      // A crash deliberately leaves the runs on disk (SpillGc destructors
      // never ran). Validate each descriptor and its backing file before
      // trusting it; inconsistent sizes or a vanished or shrunken file fail
      // the restore and the task re-runs (self-healing). The comparisons
      // cannot overflow, so no forged offset or size wraps past them.
      uint64_t num_runs = 0;
      DOD_RETURN_IF_ERROR(reader.U64(&num_runs));
      runs.clear();
      for (uint64_t i = 0; i < num_runs; ++i) {
        SpillRunInfo run;
        DOD_RETURN_IF_ERROR(reader.String(&run.file));
        DOD_RETURN_IF_ERROR(reader.U32(&run.partition));
        DOD_RETURN_IF_ERROR(reader.U64(&run.records));
        DOD_RETURN_IF_ERROR(reader.U64(&run.offset));
        DOD_RETURN_IF_ERROR(reader.U64(&run.bytes));
        DOD_RETURN_IF_ERROR(reader.U64(&run.checksum));
        DOD_RETURN_IF_ERROR(reader.U64(&run.min_key));
        DOD_RETURN_IF_ERROR(reader.U64(&run.max_key));
        if (run.partition >= num_reduce) {
          return Status::IoError("map checkpoint spill run has bad partition");
        }
        if (run.bytes % sizeof(Record) != 0 ||
            run.bytes / sizeof(Record) != run.records) {
          return Status::IoError(
              "map checkpoint spill run size does not match its records");
        }
        std::error_code ec;
        const uint64_t size = std::filesystem::file_size(run.file, ec);
        if (ec || run.offset > size || run.bytes > size - run.offset) {
          return Status::IoError("map checkpoint spill run file " + run.file +
                                 " missing or short");
        }
        runs.push_back(std::move(run));
      }
      for (const SpillRunInfo& run : runs) gc->Track(run.file);
      return Status::Ok();
    }
    uint64_t num_buckets = 0;
    DOD_RETURN_IF_ERROR(reader.U64(&num_buckets));
    if (num_buckets != num_reduce) {
      return Status::IoError("map checkpoint bucket count mismatch");
    }
    for (auto& bucket : committed) {
      uint64_t count = 0;
      DOD_RETURN_IF_ERROR(reader.U64(&count));
      if (count > reader.remaining() / sizeof(Record)) {
        return Status::IoError("map checkpoint bucket overruns payload");
      }
      bucket.resize(static_cast<size_t>(count));
      DOD_RETURN_IF_ERROR(reader.Raw(
          bucket.data(), static_cast<size_t>(count) * sizeof(Record)));
    }
    return Status::Ok();
  }
};

// Buffers one map attempt's records into its task's staging buckets,
// routing each through the job's routing callable and charging its wire
// size.
template <typename K, typename V, typename Route, typename RecordSize>
class ShuffleEmitter : public Emitter<K, V> {
 public:
  ShuffleEmitter(MapTaskState<K, V>& task, const Route& route,
                 const RecordSize& record_size, ShuffleFaultFilter* filter,
                 TaskSpiller<K, V>* spiller, uint64_t spill_threshold)
      : task_(task),
        route_(route),
        record_size_(record_size),
        filter_(filter),
        spiller_(spiller),
        spill_threshold_(spill_threshold) {}

  void Emit(const K& key, const V& value) override {
    if (filter_ != nullptr) {
      const FaultKind fault = filter_->Next();
      // A dropped record never reaches its bucket; a corrupted one does but
      // poisons the attempt, whose whole staging is then discarded. Either
      // way the filter fails the attempt, so no faulty data ever commits.
      if (fault == FaultKind::kShuffleDrop) return;
    }
    const int r = route_(key);
    DOD_CHECK(r >= 0 && r < static_cast<int>(task_.staging.size()));
    task_.staging[static_cast<size_t>(r)].emplace_back(key, value);
    ++task_.attempt_records;
    task_.attempt_bytes += record_size_(key, value);
    if (spiller_ != nullptr) {
      // The spill trigger runs on resident pair bytes, not the charged
      // wire size: what the threshold bounds is this task's memory.
      bytes_since_spill_ += sizeof(std::pair<K, V>);
      if (bytes_since_spill_ >= spill_threshold_) {
        spiller_->Spill(task_.staging);
        bytes_since_spill_ = 0;
      }
    }
  }

 private:
  MapTaskState<K, V>& task_;
  const Route& route_;
  const RecordSize& record_size_;
  ShuffleFaultFilter* filter_;
  TaskSpiller<K, V>* spiller_;
  uint64_t spill_threshold_;
  uint64_t bytes_since_spill_ = 0;
};

// One reduce task: its committed output, how it grouped, and its stats
// delta and slot costs.
template <typename Out>
struct ReduceTaskState {
  static constexpr bool kCheckpointable = std::is_trivially_copyable_v<Out>;

  std::vector<Out> staged;
  std::vector<Out> committed;
  Counters counters;
  uint64_t groups = 0;
  GroupPath group_path = GroupPath::kSorted;
  FallbackReason fallback = FallbackReason::kNone;
  // Runs the reduce-side spill degrade wrote (see GroupSegments).
  std::vector<SpillRunInfo> spill_runs;
  double group_seconds = 0.0;
  JobStats stats;
  std::vector<double> slot_costs;

  // Checkpoint payload body: group path and fallback reason (one byte
  // each), group seconds, then the committed output.
  void Save(PayloadWriter& payload) const {
    payload.U8(static_cast<uint8_t>(group_path));
    payload.U8(static_cast<uint8_t>(fallback));
    payload.F64(group_seconds);
    payload.U64(committed.size());
    payload.Raw(committed.data(), committed.size() * sizeof(Out));
  }

  Status Restore(PayloadReader& reader) {
    uint8_t path = 0;
    DOD_RETURN_IF_ERROR(reader.U8(&path));
    if (path > static_cast<uint8_t>(GroupPath::kSorted)) {
      return Status::IoError("reduce checkpoint has unknown group path");
    }
    group_path = static_cast<GroupPath>(path);
    uint8_t reason = 0;
    DOD_RETURN_IF_ERROR(reader.U8(&reason));
    if (reason > static_cast<uint8_t>(FallbackReason::kSpill)) {
      return Status::IoError("reduce checkpoint has unknown fallback reason");
    }
    fallback = static_cast<FallbackReason>(reason);
    DOD_RETURN_IF_ERROR(reader.F64(&group_seconds));
    uint64_t count = 0;
    DOD_RETURN_IF_ERROR(reader.U64(&count));
    if (count > reader.remaining() / sizeof(Out)) {
      return Status::IoError("reduce checkpoint output overruns payload");
    }
    committed.resize(static_cast<size_t>(count));
    return reader.Raw(committed.data(),
                      static_cast<size_t>(count) * sizeof(Out));
  }
};

// Rejects a job spec the engine cannot run. Checkpoint payloads and spill
// runs store records as raw bytes; jobs with richer types run, but cannot
// checkpoint or spill.
template <typename MapTask, typename ReduceTask>
Status ValidateJob(const JobSpec& spec) {
  if (spec.num_reduce_tasks < 1) {
    return Status::InvalidArgument(
        "RunMapReduce: num_reduce_tasks must be >= 1");
  }
  if (spec.max_task_attempts < 1) {
    return Status::InvalidArgument(
        "RunMapReduce: max_task_attempts must be >= 1");
  }
  if (spec.num_threads > kMaxThreads) {
    return Status::InvalidArgument(
        "RunMapReduce: num_threads must be <= " + std::to_string(kMaxThreads));
  }
  if constexpr (!MapTask::kCheckpointable || !ReduceTask::kCheckpointable) {
    if (spec.checkpoint != nullptr) {
      return Status::Unimplemented(
          "RunMapReduce: checkpointing requires trivially copyable "
          "key/value/output types");
    }
  }
  if constexpr (!MapTask::kCheckpointable) {
    if (spec.spill.enabled()) {
      return Status::Unimplemented(
          "RunMapReduce: shuffle spilling requires trivially copyable "
          "key/value types");
    }
  }
  return Status::Ok();
}

// Runs task `index` of `phase`, whose state is `state`, through its durable
// lifecycle: restore it from its checkpoint when resuming — a record that
// fails validation is discarded and the task re-runs (self-healing) —
// else `run()` it; then durably record the committed task and fire a
// configured crash. Every payload opens with the task's stats delta and
// slot costs and closes with the caller's extra state; the state's Save /
// Restore (handed `restore_args`) own the phase-specific middle.
template <typename State, typename Run, typename... RestoreArgs>
Status RunDurably(const JobSpec& spec, TaskPhase phase, size_t index,
                  State& state, Run&& run,
                  [[maybe_unused]] RestoreArgs... restore_args) {
  [[maybe_unused]] MetricsRegistry& metrics = MetricsRegistry::Global();
  const int task = static_cast<int>(index);
  const char* name = TaskPhaseName(phase);
  if constexpr (State::kCheckpointable) {
    if (spec.checkpoint != nullptr && spec.resume &&
        spec.checkpoint->HasTask(name, task)) {
      trace::Span span("durability", "checkpoint_restore");
      span.Arg("phase", name).Arg("task", static_cast<uint64_t>(index));
      const Status restored = [&]() -> Status {
        DOD_ASSIGN_OR_RETURN(std::string payload,
                             spec.checkpoint->LoadTask(name, task));
        PayloadReader reader(payload);
        DOD_RETURN_IF_ERROR(DeserializeJobStatsDelta(&reader, &state.stats));
        DOD_RETURN_IF_ERROR(reader.F64Vec(&state.slot_costs));
        DOD_RETURN_IF_ERROR(state.Restore(reader, restore_args...));
        if (spec.restore_extra) {
          DOD_RETURN_IF_ERROR(spec.restore_extra(phase, task, reader));
        }
        return reader.ExpectDone();
      }();
      if (restored.ok()) {
        span.Arg("status", "ok");
        metrics.IncrementCounter("durability.checkpoint.tasks_resumed");
        return Status::Ok();
      }
      span.Arg("status", "failed");
      metrics.IncrementCounter("durability.checkpoint.load_failures");
      DOD_LOG(Warning) << name << " task " << index
                       << " checkpoint unusable (" << restored.ToString()
                       << "); re-running";
      state = State();
    }
  }
  DOD_RETURN_IF_ERROR(run());
  if constexpr (State::kCheckpointable) {
    if (spec.checkpoint != nullptr) {
      PayloadWriter payload;
      SerializeJobStatsDelta(state.stats, &payload);
      payload.F64Vec(state.slot_costs);
      state.Save(payload);
      if (spec.checkpoint_extra) spec.checkpoint_extra(phase, task, payload);
      // Best-effort: a failed write only costs resumability, never the
      // job.
      trace::Span span("durability", "checkpoint_commit");
      span.Arg("phase", name)
          .Arg("task", task)
          .Arg("bytes", static_cast<uint64_t>(payload.size()));
      StopWatch watch;
      const Status status =
          spec.checkpoint->CommitTask(name, task, payload.str());
      if (status.ok()) {
        span.Arg("status", "ok");
        metrics.IncrementCounter("durability.checkpoint.tasks_written");
        metrics.IncrementCounter("durability.checkpoint.bytes_written",
                                 payload.size());
        metrics.ObserveHistogram("durability.checkpoint.write_seconds",
                                 watch.ElapsedSeconds());
      } else {
        span.Arg("status", "failed");
        DOD_LOG(Warning) << "checkpoint write for " << name << " task "
                         << index << " failed: " << status.ToString();
      }
    }
  }
  // The configured crash (see FaultSpec) fires after the task committed
  // and, when checkpointing, after its record is durable.
  if (spec.faults.crash_at_task == task && spec.faults.crash_phase == phase) {
    if (spec.faults.crash_exit) {
      // Simulated kill -9: no destructors, no stream flushes. Only the
      // durably committed checkpoints survive — which is the point.
      std::_Exit(42);
    }
    return Status::Unavailable(std::string("injected crash after ") + name +
                               " task " + std::to_string(index) +
                               " committed");
  }
  return Status::Ok();
}

// Folds a phase's per-task stats deltas and slot costs into the job's, in
// task-index order — after success and failure alike, so a failing job's
// partial-progress stats cover every completed task.
template <typename Task>
void FoldStats(const std::vector<Task>& tasks, JobStats* stats,
               std::vector<double>* task_seconds) {
  for (const Task& task : tasks) {
    stats->MergeFrom(task.stats);
    task_seconds->insert(task_seconds->end(), task.slot_costs.begin(),
                         task.slot_costs.end());
  }
}

// Merges the completed work's accounting into *spec.partial_stats (when
// requested) before a failing job returns `failure`.
inline Status FailJob(const JobSpec& spec, const JobStats& stats,
                      const StopWatch& wall, Status failure) {
  if (IsTerminalTaskStatus(failure.code())) {
    MetricsRegistry::Global().IncrementCounter("durability.control.aborts");
  }
  if (spec.partial_stats != nullptr) {
    *spec.partial_stats = stats;
    spec.partial_stats->wall_seconds = wall.ElapsedSeconds();
  }
  return failure;
}

// Map phase: runs every map task durably. Each task stages into private
// buckets and the winning attempt's staging commits into the task's slot,
// so every reduce task's input is byte-identical no matter how tasks
// interleave.
template <typename K, typename V, typename Route, typename RecordSize>
Status MapPhase(Mapper<K, V>& mapper, const Route& route,
                const RecordSize& record_size, const JobSpec& spec,
                const FaultInjector& injector, const TaskRunner& runner,
                ParallelExecutor& executor, JobSpill& spill,
                std::vector<MapTaskState<K, V>>& tasks) {
  const size_t num_reduce = static_cast<size_t>(spec.num_reduce_tasks);
  const double read_bytes_per_second =
      spec.cluster.disk_read_mbps_per_slot * 1e6;
  const auto run_map = [&](MapTaskState<K, V>& task, size_t split) {
    task.staging.resize(num_reduce);
    if (split < spec.split_record_hints.size() &&
        spec.split_record_hints[split] > 0) {
      // Pre-size buckets from the split's expected record count, with 50%
      // headroom so a moderately skewed allocation still avoids regrowth.
      // reserve() survives the per-attempt clear() below; the commit
      // shrinks the buckets back to their contents.
      const uint64_t hint = spec.split_record_hints[split];
      const size_t per_bucket = static_cast<size_t>(
          hint / num_reduce + hint / (2 * num_reduce) + 1);
      const uint64_t reserve_bytes = static_cast<uint64_t>(per_bucket) *
                                     num_reduce * sizeof(std::pair<K, V>);
      if (spec.memory != nullptr && !spec.memory->FitsAlone(reserve_bytes)) {
        // Deterministic degrade: emit into un-presized buckets (slower,
        // identical records) instead of reserving past the budget.
        MetricsRegistry::Global().IncrementCounter(
            "durability.memory.reserve_skipped");
      } else {
        for (auto& bucket : task.staging) bucket.reserve(per_bucket);
      }
    }
    const double scan_seconds =
        split < spec.split_input_bytes.size()
            ? static_cast<double>(spec.split_input_bytes[split]) /
                  read_bytes_per_second
            : 0.0;
    // One spiller (and run file) per task, reset at each attempt: attempts
    // are sequential (task_runner.h), so truncating the file cannot race
    // and a failed attempt leaves no orphan — its successor reuses the path.
    auto spiller = spill.Spiller<K, V>("map", split);
    return runner.RunTask(
        TaskPhase::kMap, static_cast<int>(split), scan_seconds,
        [&](int attempt) -> Status {
          for (auto& bucket : task.staging) bucket.clear();
          task.attempt_records = task.attempt_bytes = 0;
          if (spiller.has_value()) spiller->Reset();
          ShuffleFaultFilter filter(injector, TaskPhase::kMap,
                                    static_cast<int>(split), attempt);
          ShuffleEmitter<K, V, Route, RecordSize> emitter(
              task, route, record_size, injector.enabled() ? &filter : nullptr,
              spiller.has_value() ? &*spiller : nullptr, spill.threshold);
          const Status map_status = mapper.TryMap(split, emitter);
          task.stats.shuffle_records_dropped += filter.dropped();
          task.stats.shuffle_records_corrupted += filter.corrupted();
          if (!map_status.ok()) return map_status;
          if (spiller.has_value()) {
            // Tasks that spilled flush their remainder so the task's
            // records live entirely in runs; surface write errors as
            // attempt failures (retried like any task error).
            DOD_RETURN_IF_ERROR(spiller->Finish(task.staging));
          }
          return filter.AttemptStatus();
        },
        [&]() {
          // The committed buckets live until the job ends (reduce tasks
          // read them in place), so drop the reserve headroom — and a
          // spilled task's emptied buffers — now.
          task.committed = std::move(task.staging);
          for (auto& bucket : task.committed) bucket.shrink_to_fit();
          if (spiller.has_value()) task.runs = spiller->TakeRuns();
          task.stats.records_shuffled += task.attempt_records;
          task.stats.bytes_shuffled += task.attempt_bytes;
        },
        task.stats, task.slot_costs);
  };
  trace::Span phase_span("phase", "map");
  phase_span.Arg("tasks", static_cast<uint64_t>(tasks.size()));
  return executor.RunTasks(tasks.size(), [&](size_t split) {
    return RunDurably(
        spec, TaskPhase::kMap, split, tasks[split],
        [&] { return run_map(tasks[split], split); }, num_reduce, &spill.gc);
  });
}

// Shuffle handoff: fills (*segments)[r], reduce task r's input — the
// committed in-memory buckets of non-spilled map tasks (referenced in
// place, so `map_tasks` must outlive the reduce phase) and the disk runs
// of spilled ones, in (split, flush) order, which preserves emission order
// per reduce task. The grouping layer (mapreduce/shuffle.h) reads them
// back.
template <typename K, typename V>
void ShuffleHandoff(std::vector<MapTaskState<K, V>>& map_tasks,
                    SegmentLists<K, V>* segments) {
  for (MapTaskState<K, V>& task : map_tasks) {
    for (size_t r = 0; r < task.committed.size(); ++r) {
      if (task.committed[r].empty()) continue;
      (*segments)[r].push_back({&task.committed[r], {}});
    }
    for (const SpillRunInfo& run : task.runs) {
      (*segments)[run.partition].push_back({nullptr, run});
    }
  }
}

// Reduce phase: groups and reduces each reduce task durably.
template <typename K, typename V, typename Out>
Status ReducePhase(Reducer<K, V, Out>& reducer, const JobSpec& spec,
                   const TaskRunner& runner, ParallelExecutor& executor,
                   JobSpill& spill, SegmentLists<K, V>& segments,
                   std::vector<ReduceTaskState<Out>>& tasks) {
  const auto run_reduce = [&](ReduceTaskState<Out>& task, size_t index) {
    // The spill degrade target: one run file per task, kept across
    // attempts, so a retry regroups from the runs an earlier attempt
    // wrote in place of its memory segments.
    auto spiller = spill.Spiller<K, V>("reduce", index);
    return runner.RunTask(
        TaskPhase::kReduce, static_cast<int>(index), /*extra_seconds=*/0.0,
        [&](int /*attempt*/) -> Status {
          task.staged.clear();
          task.counters = Counters();
          task.groups = 0;
          // Grouping is part of the attempt's cost, like Hadoop's
          // reducer-side sort, and idempotent: it never mutates its input
          // beyond the order-preserving spill degrade, so it re-runs
          // safely after a failure. Both paths yield identical groups (see
          // mapreduce/shuffle.h), so job output depends on neither the
          // mode nor the spilling.
          StopWatch group_watch;
          GroupScratch<K, V> scratch;
          auto grouped = GroupSegments(
              segments[index], spec.shuffle, &scratch, &task.group_path,
              &task.fallback, spec.memory,
              spiller.has_value() ? &*spiller : nullptr);
          if (!grouped.ok()) return grouped.status();
          const GroupedView<K, V>& groups = grouped.value();
          task.group_seconds = group_watch.ElapsedSeconds();
          DOD_RETURN_IF_ERROR(
              reducer.TryReduceTask(groups, task.staged, task.counters));
          task.groups = groups.num_groups();
          return Status::Ok();
        },
        [&]() {
          task.committed = std::move(task.staged);
          task.stats.counters.MergeFrom(task.counters);
          task.stats.groups_reduced += task.groups;
          if (spiller.has_value()) task.spill_runs = spiller->TakeRuns();
        },
        task.stats, task.slot_costs);
  };
  trace::Span phase_span("phase", "reduce");
  phase_span.Arg("tasks", static_cast<uint64_t>(tasks.size()))
      .Arg("shuffle", ShuffleModeName(spec.shuffle));
  return executor.RunTasks(tasks.size(), [&](size_t index) {
    return RunDurably(spec, TaskPhase::kReduce, index, tasks[index],
                      [&] { return run_reduce(tasks[index], index); });
  });
}

// Commit: moves the reduce output into `result` in reduce-task order,
// derives the cluster-stage times, and folds the job's totals into the
// process-wide metrics registry. Every folded value is a sum (or max) of
// per-task deltas, so — like the JobStats merge — the recorded metrics are
// independent of scheduling order.
template <typename K, typename V, typename Out>
void CommitJob(std::vector<ReduceTaskState<Out>>& reduce_tasks,
               const std::vector<MapTaskState<K, V>>& map_tasks,
               const SegmentLists<K, V>& segments, const JobSpec& spec,
               const StopWatch& wall, JobOutput<Out>* result) {
  for (ReduceTaskState<Out>& task : reduce_tasks) {
    for (Out& out : task.committed) result->output.push_back(std::move(out));
    task.committed = std::vector<Out>();
  }

  // The cluster's slots absorb every charged attempt cost, failed
  // attempts included.
  JobStats& stats = result->stats;
  stats.stage_times.map_seconds =
      Makespan(stats.map_task_seconds, spec.cluster.map_slots());
  stats.stage_times.shuffle_seconds =
      static_cast<double>(stats.bytes_shuffled) /
      spec.cluster.ShuffleBytesPerSecond();
  stats.stage_times.reduce_seconds =
      Makespan(stats.reduce_task_seconds, spec.cluster.reduce_slots());
  stats.wall_seconds = wall.ElapsedSeconds();

  // Shuffle and spill totals. Spill runs count from the committed
  // descriptors — failed attempts' truncated files never show up — once as
  // written (by the map task or the reduce degrade that wrote them) and once
  // as merged (from the segment list their reduce task read).
  // Reduce tasks by final GroupPath and by FallbackReason (restores
  // range-check both), and map / reduce tasks that wrote runs.
  uint64_t paths[static_cast<size_t>(GroupPath::kSorted) + 1] = {};
  uint64_t fallbacks[static_cast<size_t>(FallbackReason::kSpill) + 1] = {};
  uint64_t spilled_tasks[2] = {};
  uint64_t bytes_written = 0;
  uint64_t runs_merged = 0;
  uint64_t bytes_read = 0;
  std::vector<double> run_records;
  std::vector<double> group_seconds;
  const auto count_written = [&](const std::vector<SpillRunInfo>& runs,
                                 uint64_t* tasks) {
    if (!runs.empty()) ++*tasks;
    for (const SpillRunInfo& run : runs) {
      bytes_written += run.bytes;
      run_records.push_back(static_cast<double>(run.records));
    }
  };
  for (const MapTaskState<K, V>& task : map_tasks) {
    count_written(task.runs, &spilled_tasks[0]);
  }
  for (const ReduceTaskState<Out>& task : reduce_tasks) {
    ++paths[static_cast<size_t>(task.group_path)];
    ++fallbacks[static_cast<size_t>(task.fallback)];
    group_seconds.push_back(task.group_seconds);
    count_written(task.spill_runs, &spilled_tasks[1]);
  }
  for (const auto& segment_list : segments) {
    for (const ShuffleSegment<K, V>& segment : segment_list) {
      if (segment.memory != nullptr) continue;
      ++runs_merged;
      bytes_read += segment.run.bytes;
    }
  }

  // Once per job, so names resolve on the spot; every name is registered
  // even when its total is zero or it observes nothing.
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const auto observe = [&](const char* name, const std::vector<double>& all) {
    const uint32_t id = metrics.Id(name, MetricKind::kHistogram);
    for (double value : all) metrics.Observe(id, value);
  };
  const auto fallback = [&](FallbackReason reason) {
    return fallbacks[static_cast<size_t>(reason)];
  };
  metrics.IncrementCounter("mr.map_tasks", map_tasks.size());
  metrics.IncrementCounter("mr.reduce_tasks", reduce_tasks.size());
  metrics.IncrementCounter("mr.task_attempts", stats.task_attempts);
  metrics.IncrementCounter("mr.shuffle.columnar_tasks",
                           paths[static_cast<size_t>(GroupPath::kColumnar)]);
  metrics.IncrementCounter("mr.shuffle.sorted_tasks",
                           paths[static_cast<size_t>(GroupPath::kSorted)]);
  // Which guard moved a columnar-requested task off the plain counting
  // sort (see FallbackReason).
  metrics.IncrementCounter("mr.shuffle.fallback.density",
                           fallback(FallbackReason::kDensity));
  metrics.IncrementCounter("mr.shuffle.fallback.budget",
                           fallback(FallbackReason::kBudget));
  metrics.IncrementCounter("mr.shuffle.fallback.spill",
                           fallback(FallbackReason::kSpill));
  observe("mr.shuffle.group_seconds", group_seconds);
  metrics.IncrementCounter("mr.spill.map_tasks", spilled_tasks[0]);
  metrics.IncrementCounter("mr.spill.reduce_tasks", spilled_tasks[1]);
  metrics.IncrementCounter("mr.spill.runs_written", run_records.size());
  metrics.IncrementCounter("mr.spill.bytes_written", bytes_written);
  metrics.IncrementCounter("mr.spill.runs_merged", runs_merged);
  metrics.IncrementCounter("mr.spill.bytes_read", bytes_read);
  observe("mr.spill.run_records", run_records);
  observe("mr.map_slot_seconds", stats.map_task_seconds);
  observe("mr.reduce_slot_seconds", stats.reduce_task_seconds);
  observe("mr.job_wall_seconds", {stats.wall_seconds});
  if (spec.memory != nullptr) {
    metrics.SetGauge("durability.memory.peak_bytes",
                     static_cast<double>(spec.memory->peak_bytes()));
  }
}

}  // namespace internal

// Runs a full MapReduce job: map over `num_splits` splits, shuffle, reduce.
//
// `route(key)` returns a key's reduce task in [0, num_reduce_tasks) — the
// hook through which DOD injects its allocation plan (Fig. 6, Step 3). It
// is called once per emitted record, concurrently from map tasks, and must
// be pure. `record_size(key, value)` is the wire size charged per shuffled
// record (default: sizeof(K) + sizeof(V)). Both are inlined into the
// emitter, so a table lookup or a constant costs no indirect call.
//
// Returns the job output, or the structured error of the first task (by
// task index) that exhausted its attempt budget (see
// mapreduce/task_runner.h). The process never aborts on task failure.
template <typename K, typename V, typename Out, typename Route,
          typename RecordSize = internal::PairWireBytes<K, V>>
Result<JobOutput<Out>> RunMapReduce(size_t num_splits, Mapper<K, V>& mapper,
                                    Reducer<K, V, Out>& reducer,
                                    const Route& route, const JobSpec& spec,
                                    const RecordSize& record_size = {}) {
  using MapTask = internal::MapTaskState<K, V>;
  using ReduceTask = internal::ReduceTaskState<Out>;
  DOD_RETURN_IF_ERROR((internal::ValidateJob<MapTask, ReduceTask>(spec)));
  internal::JobSpill spill;
  if (spec.spill.enabled()) {
    DOD_RETURN_IF_ERROR(spill.Open(spec.spill, spec.memory, spec.checkpoint));
  }
  internal::RegisterDurabilityMetrics();
  JobOutput<Out> result;
  JobStats& stats = result.stats;
  StopWatch wall;
  const FaultInjector injector(spec.faults);
  const TaskRunner runner(spec.max_task_attempts, injector, spec.control);
  ParallelExecutor executor(spec.num_threads);
  stats.threads_used = executor.num_threads();
  const size_t num_reduce = static_cast<size_t>(spec.num_reduce_tasks);

  std::vector<MapTask> map_tasks(num_splits);
  StopWatch map_wall;
  const Status map_status =
      internal::MapPhase(mapper, route, record_size, spec, injector, runner,
                         executor, spill, map_tasks);
  stats.map_wall_seconds = map_wall.ElapsedSeconds();
  internal::FoldStats(map_tasks, &stats, &stats.map_task_seconds);
  if (!map_status.ok()) return internal::FailJob(spec, stats, wall, map_status);

  stats.records_mapped = stats.records_shuffled;
  internal::SegmentLists<K, V> segments(num_reduce);
  {
    trace::Span span("phase", "shuffle");
    span.Arg("records", stats.records_shuffled)
        .Arg("bytes", stats.bytes_shuffled);
    internal::ShuffleHandoff(map_tasks, &segments);
  }
  // Don't start reducing work that a fired deadline or cancellation has
  // already doomed.
  const Status control_status =
      spec.control != nullptr ? spec.control->Check() : Status::Ok();
  if (!control_status.ok()) {
    return internal::FailJob(spec, stats, wall, control_status);
  }

  std::vector<ReduceTask> reduce_tasks(num_reduce);
  StopWatch reduce_wall;
  const Status reduce_status =
      internal::ReducePhase(reducer, spec, runner, executor, spill, segments,
                            reduce_tasks);
  stats.reduce_wall_seconds = reduce_wall.ElapsedSeconds();
  internal::FoldStats(reduce_tasks, &stats, &stats.reduce_task_seconds);
  if (!reduce_status.ok()) {
    return internal::FailJob(spec, stats, wall, reduce_status);
  }

  internal::CommitJob(reduce_tasks, map_tasks, segments, spec, wall, &result);
  // The job committed: its spill runs are garbage now even when a
  // checkpoint store references them (see JobSpill::Open).
  spill.gc.set_keep_files(false);
  return result;
}

}  // namespace dod

#endif  // DOD_MAPREDUCE_JOB_H_
