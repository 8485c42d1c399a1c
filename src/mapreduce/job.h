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
// RunMapReduce runs three phases. Map tasks stage their records into
// per-reduce-task buckets (spilling them as sorted disk runs past a
// threshold, see mapreduce/spill.h). The shuffle handoff gives every reduce
// task its ordered segment list — those buckets and runs, in (split, flush)
// order. Each reduce task groups its segments (mapreduce/shuffle.h) and
// reduces the groups. Map and reduce tasks share one durable lifecycle:
// restore-or-run, commit, checkpoint, optional injected crash.
//
// Every task is actually executed, and its duration measured. Stage times
// are then derived by scheduling the measured task costs onto the cluster's
// slots (see cluster.h). This yields the end-to-end execution time metric
// the paper reports while running deterministically on one machine. The
// real wall-clock time of each phase is measured alongside and reported in
// JobStats, so simulated makespan and actual speedup sit side by side.
//
// Tasks really run concurrently: the map and reduce phases fan out over a
// work-stealing thread pool (runtime/parallel_executor.h), with
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
// under a TaskRunner (retry with simulated backoff, speculative execution
// for stragglers, node blacklisting), optionally under a deterministic
// FaultInjector. Attempts stage their output and commit only on success, so
// committed job output is identical to a fault-free run; a task that
// exhausts its retry budget turns the job into a structured error instead
// of aborting the process.

#ifndef DOD_MAPREDUCE_JOB_H_
#define DOD_MAPREDUCE_JOB_H_

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iterator>
#include <new>
#include <optional>
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
    DOD_CHECK_MSG(false, "Reducer: implement Reduce() or TryReduce()");
  }
  // Status-returning variant the engine invokes; defaults to adapting
  // Reduce.
  virtual Status TryReduce(const K& key, std::vector<V>& values,
                           std::vector<Out>& out, Counters& counters) {
    Reduce(key, values, out, counters);
    return Status::Ok();
  }
  // Task-at-a-time variant: one call per reduce-task attempt, receiving
  // every key group of the task at once. Override to read group values in
  // place (zero-copy) or to build per-task shared state (e.g. one probe
  // arena serving all groups). The default adapts the per-group contract:
  // each group's values are copied into scratch (the shuffle backing must
  // survive an attempt retry) and handed to TryReduce, stopping at the
  // first error. The same reentrancy rules apply — one call services one
  // task, distinct tasks run concurrently.
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
      DOD_RETURN_IF_ERROR(TryReduce(groups.key(g), values, out, counters));
    }
    return Status::Ok();
  }
};

struct JobSpec {
  // Number of reduce tasks (the partition function must return values in
  // [0, num_reduce_tasks)).
  int num_reduce_tasks = 1;
  // Worker threads executing map/reduce tasks: <= 0 uses every hardware
  // thread, 1 runs the sequential inline path (no pool).
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
  // Worker locality groups of the task pool: <= 0 auto-detects (NUMA
  // nodes, else cache-domain buckets — see ThreadPool::DetectWorkerGroups).
  // Reduce tasks are hinted onto the group whose map tasks produced most
  // of their input; placement never affects results.
  int worker_groups = 0;
  // Fault injection (disabled by default) and the task attempt policy.
  FaultSpec faults;
  RetryPolicy retry;

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

// Shuffle volume produced by one attempt; merged into JobStats on commit
// so failed attempts leave no trace in the data-flow accounting.
struct ShuffleAccounting {
  uint64_t records = 0;
  uint64_t bytes = 0;
};

// Buffers emitted records into per-reduce-task buckets (attempt staging).
// When a dense partition table is supplied (integral keys routed by a
// precomputed allocation plan), Emit resolves the reduce task with one
// indexed load instead of a std::function call per record.
template <typename K, typename V>
class ShuffleEmitter : public Emitter<K, V> {
 public:
  using Buckets = std::vector<std::vector<std::pair<K, V>>>;

  ShuffleEmitter(Buckets& buckets, const std::function<int(const K&)>& part,
                 const std::vector<int>* dense_partition, size_t record_bytes,
                 const std::function<size_t(const K&, const V&)>& record_size,
                 ShuffleAccounting& accounting, ShuffleFaultFilter* filter,
                 TaskSpiller<K, V>* spiller = nullptr,
                 uint64_t spill_threshold = 0)
      : buckets_(buckets),
        part_(part),
        dense_partition_(dense_partition),
        record_bytes_(record_bytes),
        record_size_(record_size),
        accounting_(accounting),
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
    const int task = Partition(key);
    DOD_CHECK(task >= 0 && task < static_cast<int>(buckets_.size()));
    buckets_[static_cast<size_t>(task)].emplace_back(key, value);
    ++accounting_.records;
    accounting_.bytes += record_size_ ? record_size_(key, value)
                                      : record_bytes_;
    if (spiller_ != nullptr) {
      // The spill trigger runs on resident pair bytes, not the charged
      // wire size: what the threshold bounds is this task's memory.
      bytes_since_spill_ += sizeof(std::pair<K, V>);
      if (bytes_since_spill_ >= spill_threshold_) {
        spiller_->Spill(buckets_);
        bytes_since_spill_ = 0;
      }
    }
  }

 private:
  int Partition(const K& key) const {
    if constexpr (std::is_integral_v<K>) {
      if (dense_partition_ != nullptr) {
        const size_t index = static_cast<size_t>(key);
        DOD_CHECK(index < dense_partition_->size());
        return (*dense_partition_)[index];
      }
    }
    return part_(key);
  }

  Buckets& buckets_;
  const std::function<int(const K&)>& part_;
  const std::vector<int>* dense_partition_;
  size_t record_bytes_;
  const std::function<size_t(const K&, const V&)>& record_size_;
  ShuffleAccounting& accounting_;
  ShuffleFaultFilter* filter_;
  TaskSpiller<K, V>* spiller_;
  uint64_t spill_threshold_;
  uint64_t bytes_since_spill_ = 0;
};

}  // namespace internal

// Runs a full MapReduce job: map over `num_splits` splits, shuffle, reduce.
//
// `partition` routes a key to its reduce task — the hook through which DOD
// injects its allocation plan (Fig. 6, Step 3); it is called concurrently
// from map tasks and must be pure. When the plan is already a dense table
// over an integral key space, pass it as `dense_partition` (entry k = the
// reduce task of key k) and the emitter skips the std::function call per
// record; `partition` is then only a fallback and may be empty.
// `record_bytes` is the wire size charged per shuffled record; pass
// `record_size` instead when record sizes vary (heap-allocated payloads),
// in which case it overrides `record_bytes` per record.
//
// Returns the job output, or the structured error of the first task (by
// task index) that exhausted its attempt budget (see
// mapreduce/task_runner.h). The process never aborts on task failure.
template <typename K, typename V, typename Out>
Result<JobOutput<Out>> RunMapReduce(
    size_t num_splits, Mapper<K, V>& mapper, Reducer<K, V, Out>& reducer,
    const std::function<int(const K&)>& partition, const JobSpec& spec,
    size_t record_bytes = sizeof(K) + sizeof(V),
    const std::function<size_t(const K&, const V&)>& record_size = {},
    const std::vector<int>* dense_partition = nullptr) {
  if (spec.num_reduce_tasks < 1) {
    return Status::InvalidArgument(
        "RunMapReduce: num_reduce_tasks must be >= 1");
  }
  // Checkpoint payloads store records and outputs as raw bytes; that is
  // only sound for trivially copyable types. Jobs with richer types can
  // still run — they just cannot checkpoint. The check is on K and V, not
  // on pair<K, V>: pair's user-provided assignment operator makes the pair
  // formally non-trivially-copyable even when its representation — all
  // that the byte copy touches — is two trivially copyable members.
  constexpr bool kCheckpointable = std::is_trivially_copyable_v<K> &&
                                   std::is_trivially_copyable_v<V> &&
                                   std::is_trivially_copyable_v<Out>;
  if constexpr (!kCheckpointable) {
    if (spec.checkpoint != nullptr) {
      return Status::Unimplemented(
          "RunMapReduce: checkpointing requires trivially copyable "
          "key/value/output types");
    }
  }
  // Spill runs store records as raw bytes — same soundness condition as
  // checkpoint payloads, but only on the shuffled pair.
  constexpr bool kSpillable =
      std::is_trivially_copyable_v<K> && std::is_trivially_copyable_v<V>;
  if constexpr (!kSpillable) {
    if (spec.spill.enabled()) {
      return Status::Unimplemented(
          "RunMapReduce: shuffle spilling requires trivially copyable "
          "key/value types");
    }
  }
  const bool spilling = kSpillable && spec.spill.enabled();
  const uint64_t spill_threshold = spec.spill.EffectiveThreshold(spec.memory);
  internal::SpillGc spill_gc;
  std::string spill_dir;
  if (spilling) {
    // Run files live in a per-job subdirectory so jobs sharing a spill
    // dir cannot truncate each other's files. Keyed by the checkpoint
    // store's identity when checkpointing — a resumed run must land in
    // the same namespace its crashed predecessor spilled into.
    spill_dir = internal::SpillJobDir(
        spec.spill.dir,
        spec.checkpoint != nullptr
            ? spec.checkpoint->dir() + "\n" + spec.checkpoint->job_key()
            : std::string());
    std::error_code ec;
    std::filesystem::create_directories(spill_dir, ec);
    if (ec) {
      return Status::IoError("RunMapReduce: cannot create spill directory " +
                             spill_dir + ": " + ec.message());
    }
    spill_gc.TrackDir(spill_dir);
    // A checkpointing job's durable records reference the run files, so a
    // structured failure must leave them on disk for the resumed run —
    // matching what a real crash (no destructors) does. Disarmed at the
    // success exit below.
    spill_gc.set_keep_files(spec.checkpoint != nullptr);
  }
  JobOutput<Out> result;
  JobStats& stats = result.stats;
  StopWatch wall;

  const FaultInjector injector(spec.faults);
  TaskRunner runner(spec.retry, injector, spec.cluster, spec.control);
  ParallelExecutor executor(spec.num_threads, spec.worker_groups);
  stats.threads_used = executor.num_threads();

  const size_t num_reduce = static_cast<size_t>(spec.num_reduce_tasks);
  using Buckets = typename internal::ShuffleEmitter<K, V>::Buckets;

  // ---- Durability plumbing ---------------------------------------------
  // Registered unconditionally so the durability.* schema is always
  // present in metrics dumps; Id() is idempotent across instantiations.
  MetricsRegistry& dmetrics = MetricsRegistry::Global();
  [[maybe_unused]] static const uint32_t kCkptTasksWritten = dmetrics.Id(
      "durability.checkpoint.tasks_written", MetricKind::kCounter);
  [[maybe_unused]] static const uint32_t kCkptTasksResumed = dmetrics.Id(
      "durability.checkpoint.tasks_resumed", MetricKind::kCounter);
  [[maybe_unused]] static const uint32_t kCkptBytesWritten = dmetrics.Id(
      "durability.checkpoint.bytes_written", MetricKind::kCounter);
  [[maybe_unused]] static const uint32_t kCkptWriteSeconds = dmetrics.Id(
      "durability.checkpoint.write_seconds", MetricKind::kHistogram);
  [[maybe_unused]] static const uint32_t kCkptLoadFailures = dmetrics.Id(
      "durability.checkpoint.load_failures", MetricKind::kCounter);
  static const uint32_t kControlAborts =
      dmetrics.Id("durability.control.aborts", MetricKind::kCounter);
  static const uint32_t kBudgetReserveSkipped = dmetrics.Id(
      "durability.memory.reserve_skipped", MetricKind::kCounter);
  static const uint32_t kBudgetPeakBytes =
      dmetrics.Id("durability.memory.peak_bytes", MetricKind::kGauge);

  // Merges the completed work's accounting into *spec.partial_stats (when
  // requested) before a failing job returns `failure`.
  auto fail_job = [&](Status failure) -> Status {
    if (IsTerminalTaskStatus(failure.code())) {
      dmetrics.Increment(kControlAborts);
    }
    if (spec.partial_stats != nullptr) {
      stats.wall_seconds = wall.ElapsedSeconds();
      *spec.partial_stats = stats;
    }
    return failure;
  };

  // Runs task `index` of `phase` (state `task`) through its durable
  // lifecycle: restore it from its checkpoint when resuming — a record that
  // fails validation is discarded and the task re-runs (self-healing) —
  // else `run` it; then durably record the committed task (`save`) and
  // fire a configured crash. Every payload opens with the task's stats
  // delta and slot costs and closes with the caller's extra state;
  // `restore` / `save` own the phase-specific middle.
  auto run_durably = [&](TaskPhase phase, size_t index, auto& state,
                         auto&& restore, auto&& run, auto&& save) -> Status {
    const int task = static_cast<int>(index);
    const char* name = TaskPhaseName(phase);
    if constexpr (kCheckpointable) {
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
          DOD_RETURN_IF_ERROR(restore(state, reader));
          if (spec.restore_extra) {
            DOD_RETURN_IF_ERROR(spec.restore_extra(phase, task, reader));
          }
          return reader.ExpectDone();
        }();
        if (restored.ok()) {
          span.Arg("status", "ok");
          dmetrics.Increment(kCkptTasksResumed);
          return Status::Ok();
        }
        span.Arg("status", "failed");
        dmetrics.Increment(kCkptLoadFailures);
        DOD_LOG(Warning) << name << " task " << index
                         << " checkpoint unusable (" << restored.ToString()
                         << "); re-running";
        state = std::remove_reference_t<decltype(state)>();
      }
    }
    DOD_RETURN_IF_ERROR(run(state, index));
    if constexpr (kCheckpointable) {
      if (spec.checkpoint != nullptr) {
        PayloadWriter payload;
        SerializeJobStatsDelta(state.stats, &payload);
        payload.F64Vec(state.slot_costs);
        save(state, payload);
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
          dmetrics.Increment(kCkptTasksWritten);
          dmetrics.Increment(kCkptBytesWritten, payload.size());
          dmetrics.Observe(kCkptWriteSeconds, watch.ElapsedSeconds());
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
  };

  // Folds a phase's per-task stats deltas and slot costs into the job's,
  // in task-index order — after success and failure alike, so a failing
  // job's partial-progress stats cover every completed task.
  auto fold_stats = [&stats](auto& tasks, std::vector<double>* task_seconds) {
    for (auto& task : tasks) {
      stats.MergeFrom(task.stats);
      task_seconds->insert(task_seconds->end(), task.slot_costs.begin(),
                           task.slot_costs.end());
    }
  };

  // ---- Map phase -------------------------------------------------------
  // Every map task stages into private buckets; the winning attempt's
  // staging is committed into the task's slot and handed to the reduce
  // tasks after the barrier, in split order — so every reduce task's input
  // is byte-identical no matter how tasks interleave.
  struct MapTaskState {
    Buckets staging;
    Buckets committed;
    // Spilled shuffle: the winning attempt's run descriptors, in flush
    // order. A task spills everything or nothing (TaskSpiller::Finish), so
    // non-empty runs imply empty committed buckets.
    std::vector<internal::SpillRunInfo> runs;
    // Worker group that executed the winning attempt (-1 when unknown,
    // e.g. sequential runs or checkpoint restores): the group that
    // first-touched this task's output, feeding the reduce placement hints.
    int worker_group = -1;
    internal::ShuffleAccounting accounting;
    JobStats stats;
    std::vector<double> slot_costs;
  };
  std::vector<MapTaskState> map_tasks(num_splits);
  const double read_bytes_per_second =
      spec.cluster.disk_read_mbps_per_slot * 1e6;

  // Map checkpoint payload: a spilled flag, then either the run
  // descriptors (the runs themselves are already on disk and survive a
  // crash) or the committed buckets.
  auto restore_map = [&](MapTaskState& task, PayloadReader& reader) -> Status {
    uint8_t spilled_flag = 0;
    DOD_RETURN_IF_ERROR(reader.U8(&spilled_flag));
    if (spilled_flag > 1) {
      return Status::IoError("map checkpoint has unknown layout");
    }
    task.committed.assign(num_reduce, typename Buckets::value_type());
    if (spilled_flag == 1) {
      // A crash deliberately leaves the runs on disk (SpillGc destructors
      // never ran). Validate each run's backing file before trusting the
      // descriptor; a vanished or shrunken file fails the restore and the
      // task re-runs (self-healing).
      uint64_t num_runs = 0;
      DOD_RETURN_IF_ERROR(reader.U64(&num_runs));
      task.runs.clear();
      for (uint64_t i = 0; i < num_runs; ++i) {
        internal::SpillRunInfo run;
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
        std::error_code ec;
        const uint64_t size = std::filesystem::file_size(run.file, ec);
        if (ec || size < run.offset + run.bytes) {
          return Status::IoError("map checkpoint spill run file " + run.file +
                                 " missing or short");
        }
        task.runs.push_back(std::move(run));
      }
      for (const internal::SpillRunInfo& run : task.runs) {
        spill_gc.Track(run.file);
      }
      return Status::Ok();
    }
    uint64_t num_buckets = 0;
    DOD_RETURN_IF_ERROR(reader.U64(&num_buckets));
    if (num_buckets != num_reduce) {
      return Status::IoError("map checkpoint bucket count mismatch");
    }
    for (auto& bucket : task.committed) {
      uint64_t count = 0;
      DOD_RETURN_IF_ERROR(reader.U64(&count));
      if (count > reader.remaining() / sizeof(std::pair<K, V>)) {
        return Status::IoError("map checkpoint bucket overruns payload");
      }
      bucket.resize(static_cast<size_t>(count));
      DOD_RETURN_IF_ERROR(reader.Raw(
          bucket.data(), static_cast<size_t>(count) * sizeof(std::pair<K, V>)));
    }
    return Status::Ok();
  };
  auto save_map = [](const MapTaskState& task, PayloadWriter& payload) {
    payload.U8(task.runs.empty() ? 0 : 1);
    if (!task.runs.empty()) {
      payload.U64(task.runs.size());
      for (const internal::SpillRunInfo& run : task.runs) {
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
    payload.U64(task.committed.size());
    for (const auto& bucket : task.committed) {
      payload.U64(bucket.size());
      payload.Raw(bucket.data(), bucket.size() * sizeof(std::pair<K, V>));
    }
  };
  auto run_map = [&](MapTaskState& task, size_t split) -> Status {
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
        dmetrics.Increment(kBudgetReserveSkipped);
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
    // are sequential and speculative duplicates are simulated only
    // (task_runner.h), so truncating the file cannot race and a failed
    // attempt leaves no orphan — its successor reuses the path.
    std::optional<internal::TaskSpiller<K, V>> spiller;
    if (spilling) {
      spiller.emplace(
          internal::SpillFilePath(spill_dir, "map", static_cast<int>(split)),
          &spill_gc);
    }
    return runner.RunTask(
        TaskPhase::kMap, static_cast<int>(split), scan_seconds,
        [&](int attempt) -> Status {
          for (auto& bucket : task.staging) bucket.clear();
          task.accounting = internal::ShuffleAccounting{};
          if (spiller.has_value()) spiller->Reset();
          ShuffleFaultFilter filter(injector, TaskPhase::kMap,
                                    static_cast<int>(split), attempt);
          internal::ShuffleEmitter<K, V> emitter(
              task.staging, partition, dense_partition, record_bytes,
              record_size, task.accounting,
              injector.enabled() ? &filter : nullptr,
              spiller.has_value() ? &*spiller : nullptr, spill_threshold);
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
          task.worker_group = ThreadPool::CurrentWorkerGroup();
          return filter.AttemptStatus();
        },
        [&]() {
          // The committed buckets live until the job ends (reduce tasks
          // read them in place), so drop the reserve headroom — and a
          // spilled task's emptied buffers — now.
          task.committed = std::move(task.staging);
          for (auto& bucket : task.committed) bucket.shrink_to_fit();
          if (spiller.has_value()) task.runs = spiller->TakeRuns();
          task.stats.records_shuffled += task.accounting.records;
          task.stats.bytes_shuffled += task.accounting.bytes;
        },
        task.stats, task.slot_costs);
  };

  StopWatch map_wall;
  Status map_status;
  {
    trace::Span phase_span("phase", "map");
    phase_span.Arg("tasks", static_cast<uint64_t>(num_splits));
    map_status = executor.RunTasks(num_splits, [&](size_t split) {
      return run_durably(TaskPhase::kMap, split, map_tasks[split],
                         restore_map, run_map, save_map);
    });
  }
  stats.map_wall_seconds = map_wall.ElapsedSeconds();
  fold_stats(map_tasks, &stats.map_task_seconds);
  if (!map_status.ok()) return fail_job(map_status);

  // ---- Shuffle handoff --------------------------------------------------
  // Reduce task r's input is the segment list segments[r]: the committed
  // in-memory buckets of non-spilled map tasks (referenced in place —
  // map_tasks outlives the reduce phase) and the disk runs of spilled ones,
  // in (split, flush) order, which preserves emission order per reduce
  // task. The grouping layer (mapreduce/shuffle.h) reads them back.
  std::vector<std::vector<internal::ShuffleSegment<K, V>>> segments(
      num_reduce);
  // group_records[r][g]: records of reduce task r produced by map tasks
  // that ran on worker group g — the placement-hint scorecard.
  const int exec_groups = executor.num_groups();
  std::vector<std::vector<uint64_t>> group_records(
      num_reduce, std::vector<uint64_t>(static_cast<size_t>(exec_groups), 0));
  {
    trace::Span shuffle_span("phase", "shuffle");
    for (MapTaskState& task : map_tasks) {
      const auto add = [&](size_t r, internal::ShuffleSegment<K, V> segment,
                           uint64_t records) {
        if (task.worker_group >= 0 && task.worker_group < exec_groups) {
          group_records[r][static_cast<size_t>(task.worker_group)] += records;
        }
        segments[r].push_back(std::move(segment));
      };
      for (size_t r = 0; r < task.committed.size(); ++r) {
        if (task.committed[r].empty()) continue;
        add(r, {&task.committed[r], {}}, task.committed[r].size());
      }
      for (const internal::SpillRunInfo& run : task.runs) {
        add(run.partition, {nullptr, run}, run.records);
      }
    }
    stats.records_mapped = stats.records_shuffled;
    shuffle_span.Arg("records", stats.records_shuffled)
        .Arg("bytes", stats.bytes_shuffled);
  }

  // Placement hints: schedule reduce task r onto the worker group whose
  // map tasks produced the plurality of its input (ties to the lowest
  // group; -1 = no preference). Hints steer scheduling only — results and
  // error selection are placement-independent — and because retries run
  // inside one submitted pool closure, a hint stays pinned through every
  // attempt of its task, including speculative re-execution.
  std::vector<int> reduce_hints(num_reduce, -1);
  if (exec_groups > 1) {
    for (size_t r = 0; r < num_reduce; ++r) {
      uint64_t best = 0;
      for (int g = 0; g < exec_groups; ++g) {
        if (group_records[r][static_cast<size_t>(g)] > best) {
          best = group_records[r][static_cast<size_t>(g)];
          reduce_hints[r] = g;
        }
      }
    }
  }

  // Stop-condition check at the phase boundary: don't start reducing work
  // that a fired deadline or cancellation has already doomed.
  if (spec.control != nullptr) {
    Status control_status = spec.control->Check();
    if (!control_status.ok()) return fail_job(std::move(control_status));
  }

  // ---- Reduce phase (group + reduce, per task) --------------------------
  struct ReduceTaskState {
    std::vector<Out> staged;
    std::vector<Out> committed;
    Counters counters;
    uint64_t groups = 0;
    internal::GroupPath group_path = internal::GroupPath::kSorted;
    internal::FallbackReason fallback = internal::FallbackReason::kNone;
    // Runs the reduce-side spill degrade wrote (see GroupSegments).
    std::vector<internal::SpillRunInfo> spill_runs;
    double group_seconds = 0.0;
    JobStats stats;
    std::vector<double> slot_costs;
  };
  std::vector<ReduceTaskState> reduce_tasks(num_reduce);

  // Reduce checkpoint payload: group path and fallback reason (one byte
  // each), group seconds, then the committed output.
  auto restore_reduce = [](ReduceTaskState& task,
                           PayloadReader& reader) -> Status {
    uint8_t path = 0;
    DOD_RETURN_IF_ERROR(reader.U8(&path));
    if (path > static_cast<uint8_t>(internal::GroupPath::kSorted)) {
      return Status::IoError("reduce checkpoint has unknown group path");
    }
    task.group_path = static_cast<internal::GroupPath>(path);
    uint8_t reason = 0;
    DOD_RETURN_IF_ERROR(reader.U8(&reason));
    if (reason > static_cast<uint8_t>(internal::FallbackReason::kSpill)) {
      return Status::IoError("reduce checkpoint has unknown fallback reason");
    }
    task.fallback = static_cast<internal::FallbackReason>(reason);
    DOD_RETURN_IF_ERROR(reader.F64(&task.group_seconds));
    uint64_t count = 0;
    DOD_RETURN_IF_ERROR(reader.U64(&count));
    if (count > reader.remaining() / sizeof(Out)) {
      return Status::IoError("reduce checkpoint output overruns payload");
    }
    task.committed.resize(static_cast<size_t>(count));
    return reader.Raw(task.committed.data(),
                      static_cast<size_t>(count) * sizeof(Out));
  };
  auto save_reduce = [](const ReduceTaskState& task, PayloadWriter& payload) {
    payload.U8(static_cast<uint8_t>(task.group_path));
    payload.U8(static_cast<uint8_t>(task.fallback));
    payload.F64(task.group_seconds);
    payload.U64(task.committed.size());
    payload.Raw(task.committed.data(), task.committed.size() * sizeof(Out));
  };
  auto run_reduce = [&](ReduceTaskState& task, size_t index) -> Status {
    // The spill degrade target: one run file per task, kept across
    // attempts, so a retry regroups from the runs an earlier attempt
    // wrote in place of its memory segments.
    std::optional<internal::TaskSpiller<K, V>> spiller;
    if (spilling) {
      spiller.emplace(internal::SpillFilePath(spill_dir, "reduce",
                                              static_cast<int>(index)),
                      &spill_gc);
    }
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
          internal::GroupScratch<K, V> scratch;
          auto grouped = internal::GroupSegments(
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

  StopWatch reduce_wall;
  Status reduce_status;
  {
    trace::Span phase_span("phase", "reduce");
    phase_span.Arg("tasks", static_cast<uint64_t>(num_reduce))
        .Arg("shuffle", ShuffleModeName(spec.shuffle));
    reduce_status = executor.RunTasks(
        num_reduce,
        [&](size_t index) {
          return run_durably(TaskPhase::kReduce, index, reduce_tasks[index],
                             restore_reduce, run_reduce, save_reduce);
        },
        [&](size_t index) { return reduce_hints[index]; });
  }
  stats.reduce_wall_seconds = reduce_wall.ElapsedSeconds();
  fold_stats(reduce_tasks, &stats.reduce_task_seconds);
  if (!reduce_status.ok()) return fail_job(reduce_status);

  // Deterministic output commit: reduce-task index order.
  for (ReduceTaskState& task : reduce_tasks) {
    for (Out& out : task.committed) result.output.push_back(std::move(out));
    task.committed = std::vector<Out>();
  }

  // ---- Derive cluster-stage times ---------------------------------------
  // Blacklisted nodes' slots are gone; the surviving slots absorb all
  // charged attempt costs (including failures, backoff, and speculation).
  const int blacklisted = runner.blacklisted_nodes();
  stats.nodes_blacklisted = static_cast<uint64_t>(blacklisted);
  stats.stage_times.map_seconds = Makespan(
      stats.map_task_seconds, spec.cluster.usable_map_slots(blacklisted));
  stats.stage_times.shuffle_seconds =
      static_cast<double>(stats.bytes_shuffled) /
      spec.cluster.ShuffleBytesPerSecond();
  stats.stage_times.reduce_seconds =
      Makespan(stats.reduce_task_seconds,
               spec.cluster.usable_reduce_slots(blacklisted));
  stats.wall_seconds = wall.ElapsedSeconds();

  // Fold the job's totals into the process-wide metrics registry. Every
  // value is a sum (or max) of per-task deltas, so — like the JobStats
  // merge — the recorded metrics are independent of scheduling order.
  {
    MetricsRegistry& metrics = MetricsRegistry::Global();
    static const uint32_t kJobs = metrics.Id("mr.jobs", MetricKind::kCounter);
    static const uint32_t kMapTasks =
        metrics.Id("mr.map_tasks", MetricKind::kCounter);
    static const uint32_t kReduceTasks =
        metrics.Id("mr.reduce_tasks", MetricKind::kCounter);
    static const uint32_t kAttempts =
        metrics.Id("mr.task_attempts", MetricKind::kCounter);
    static const uint32_t kFailures =
        metrics.Id("mr.task_failures", MetricKind::kCounter);
    static const uint32_t kRetries =
        metrics.Id("mr.task_retries", MetricKind::kCounter);
    static const uint32_t kSpeculative =
        metrics.Id("mr.speculative_attempts", MetricKind::kCounter);
    static const uint32_t kRecords =
        metrics.Id("mr.records_shuffled", MetricKind::kCounter);
    static const uint32_t kBytes =
        metrics.Id("mr.bytes_shuffled", MetricKind::kCounter);
    static const uint32_t kGroups =
        metrics.Id("mr.groups_reduced", MetricKind::kCounter);
    static const uint32_t kShuffleColumnar =
        metrics.Id("mr.shuffle.columnar_tasks", MetricKind::kCounter);
    static const uint32_t kShuffleSorted =
        metrics.Id("mr.shuffle.sorted_tasks", MetricKind::kCounter);
    // Reason-labeled fallback counters: which guard pushed a columnar-
    // requested task off the counting-sort fast path (see FallbackReason).
    static const uint32_t kFallbackDensity =
        metrics.Id("mr.shuffle.fallback.density", MetricKind::kCounter);
    static const uint32_t kFallbackBudget =
        metrics.Id("mr.shuffle.fallback.budget", MetricKind::kCounter);
    static const uint32_t kFallbackSpill =
        metrics.Id("mr.shuffle.fallback.spill", MetricKind::kCounter);
    static const uint32_t kShuffleGroupSeconds =
        metrics.Id("mr.shuffle.group_seconds", MetricKind::kHistogram);
    static const uint32_t kSpillMapTasks =
        metrics.Id("mr.spill.map_tasks", MetricKind::kCounter);
    static const uint32_t kSpillReduceTasks =
        metrics.Id("mr.spill.reduce_tasks", MetricKind::kCounter);
    static const uint32_t kSpillRunsWritten =
        metrics.Id("mr.spill.runs_written", MetricKind::kCounter);
    static const uint32_t kSpillBytesWritten =
        metrics.Id("mr.spill.bytes_written", MetricKind::kCounter);
    static const uint32_t kSpillRunsMerged =
        metrics.Id("mr.spill.runs_merged", MetricKind::kCounter);
    static const uint32_t kSpillBytesRead =
        metrics.Id("mr.spill.bytes_read", MetricKind::kCounter);
    static const uint32_t kSpillRunRecords =
        metrics.Id("mr.spill.run_records", MetricKind::kHistogram);
    static const uint32_t kWorkerGroups =
        metrics.Id("runtime.worker_groups", MetricKind::kGauge);
    static const uint32_t kStealLocal =
        metrics.Id("runtime.steal.local", MetricKind::kCounter);
    static const uint32_t kStealRemote =
        metrics.Id("runtime.steal.remote", MetricKind::kCounter);
    static const uint32_t kThreads =
        metrics.Id("mr.threads_used", MetricKind::kGauge);
    static const uint32_t kMapSlot =
        metrics.Id("mr.map_slot_seconds", MetricKind::kHistogram);
    static const uint32_t kReduceSlot =
        metrics.Id("mr.reduce_slot_seconds", MetricKind::kHistogram);
    static const uint32_t kJobWall =
        metrics.Id("mr.job_wall_seconds", MetricKind::kHistogram);
    metrics.Increment(kJobs);
    metrics.Increment(kMapTasks, static_cast<uint64_t>(num_splits));
    metrics.Increment(kReduceTasks, static_cast<uint64_t>(num_reduce));
    metrics.Increment(kAttempts, stats.task_attempts);
    metrics.Increment(kFailures, stats.task_failures);
    metrics.Increment(kRetries, stats.task_retries);
    metrics.Increment(kSpeculative, stats.speculative_attempts);
    metrics.Increment(kRecords, stats.records_shuffled);
    metrics.Increment(kBytes, stats.bytes_shuffled);
    metrics.Increment(kGroups, stats.groups_reduced);
    // Spill accounting, from the committed run descriptors — failed
    // attempts' truncated files never show up here. Each run counts once
    // as written (by the map task or the reduce degrade that wrote it) and
    // once as merged (from the segment list its reduce task read).
    const auto count_written = [&](const std::vector<internal::SpillRunInfo>&
                                       runs,
                                   uint32_t tasks_id) {
      if (runs.empty()) return;
      metrics.Increment(tasks_id);
      for (const internal::SpillRunInfo& run : runs) {
        metrics.Increment(kSpillRunsWritten);
        metrics.Increment(kSpillBytesWritten, run.bytes);
        metrics.Observe(kSpillRunRecords, static_cast<double>(run.records));
      }
    };
    for (const MapTaskState& task : map_tasks) {
      count_written(task.runs, kSpillMapTasks);
    }
    for (const ReduceTaskState& task : reduce_tasks) {
      metrics.Increment(task.group_path == internal::GroupPath::kColumnar
                            ? kShuffleColumnar
                            : kShuffleSorted);
      switch (task.fallback) {
        case internal::FallbackReason::kNone:
          break;
        case internal::FallbackReason::kDensity:
          metrics.Increment(kFallbackDensity);
          break;
        case internal::FallbackReason::kBudget:
          metrics.Increment(kFallbackBudget);
          break;
        case internal::FallbackReason::kSpill:
          metrics.Increment(kFallbackSpill);
          break;
      }
      metrics.Observe(kShuffleGroupSeconds, task.group_seconds);
      count_written(task.spill_runs, kSpillReduceTasks);
    }
    for (const auto& segment_list : segments) {
      for (const internal::ShuffleSegment<K, V>& segment : segment_list) {
        if (segment.memory != nullptr) continue;
        metrics.Increment(kSpillRunsMerged);
        metrics.Increment(kSpillBytesRead, segment.run.bytes);
      }
    }
    metrics.SetMax(kWorkerGroups, static_cast<double>(exec_groups));
    // Steal-locality scorecard of this job's pool. Scheduling-dependent,
    // hence exempt from the metric-determinism contract (observability
    // tests treat the runtime.steal.* prefix like timing metrics).
    metrics.Increment(kStealLocal, executor.local_steals());
    metrics.Increment(kStealRemote, executor.remote_steals());
    metrics.SetMax(kThreads, static_cast<double>(stats.threads_used));
    for (double seconds : stats.map_task_seconds) {
      metrics.Observe(kMapSlot, seconds);
    }
    for (double seconds : stats.reduce_task_seconds) {
      metrics.Observe(kReduceSlot, seconds);
    }
    metrics.Observe(kJobWall, stats.wall_seconds);
    if (spec.memory != nullptr) {
      metrics.SetMax(kBudgetPeakBytes,
                     static_cast<double>(spec.memory->peak_bytes()));
    }
  }
  // The job committed: its spill runs are garbage now even when a
  // checkpoint store references them (see set_keep_files above).
  spill_gc.set_keep_files(false);
  return result;
}

}  // namespace dod

#endif  // DOD_MAPREDUCE_JOB_H_
