// Copyright 2026 The DOD Authors.
//
// Deterministic fault injection for the MapReduce engine.
//
// The paper's testbed is a 40-node Hadoop cluster (Sec. VI-A) where task
// failures are routine; the engine must survive them. This module supplies
// the *adversary*: a seedable injector that decides, purely as a function
// of (seed, phase, task, attempt[, record]), whether a task attempt crashes
// or has shuffle records dropped/corrupted in flight. Because every
// decision is a pure hash of its coordinates, a run with a given FaultSpec
// is exactly reproducible — the property the fault-tolerance tests rely
// on — and is independent of the order in which attempts are scheduled.
//
// Shuffle faults model detectable transport errors (Hadoop checksums map
// output): a dropped or corrupted record poisons the whole attempt, which
// then fails and is retried, so committed job output is never wrong.

#ifndef DOD_MAPREDUCE_FAULT_INJECTION_H_
#define DOD_MAPREDUCE_FAULT_INJECTION_H_

#include <cstdint>
#include <limits>

#include "common/status.h"

namespace dod {

// Which side of the job a task belongs to.
enum class TaskPhase { kMap, kReduce };

// "map" / "reduce".
const char* TaskPhaseName(TaskPhase phase);

// What the injector did to a task attempt or shuffle record.
enum class FaultKind {
  kNone = 0,
  kTaskFailure,     // the attempt crashes after doing its work
  kShuffleDrop,     // one emitted record lost in flight (detected, attempt fails)
  kShuffleCorrupt,  // one emitted record corrupted (detected, attempt fails)
};

// Stable human-readable name, e.g. "task-failure".
const char* FaultKindName(FaultKind kind);

// Per-job fault configuration, carried by JobSpec.
struct FaultSpec {
  // Master switch; when false the injector is a no-op regardless of rates.
  bool enabled = false;
  // Seed of every injection decision. Identical seeds (and rates) yield
  // identical fault schedules across runs.
  uint64_t seed = 1;

  // Per-attempt probability that a task attempt fails outright.
  double task_failure_prob = 0.0;
  // Per-record probabilities of shuffle loss/corruption during map attempts.
  double shuffle_drop_prob = 0.0;
  double shuffle_corrupt_prob = 0.0;

  // Attempts with index >= this value are never faulted, making every
  // injected fault transient once the retry budget exceeds it. The default
  // leaves faults unrestricted (a task can fail its whole budget).
  int max_faulty_attempts_per_task = std::numeric_limits<int>::max();

  // Crash injection for durability testing: kill the *job* right after the
  // task (crash_phase, crash_at_task) commits — and, when checkpointing is
  // on, after its checkpoint is durably recorded. With `crash_exit` the
  // whole process dies via _Exit(42), simulating a kill -9 for the
  // crash-recovery CI leg; otherwise the job returns a structured
  // kUnavailable error. -1 disables. Unlike the probabilistic rates above,
  // the crash fires regardless of `enabled` (it is an engine-level switch,
  // not an injector decision).
  int crash_at_task = -1;
  TaskPhase crash_phase = TaskPhase::kReduce;
  bool crash_exit = false;
};

// Stateless decision oracle over a FaultSpec. Const and cheap; one instance
// serves a whole job.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultSpec& spec) : spec_(spec) {}

  bool enabled() const { return spec_.enabled; }

  // Task-level fault for one attempt: kNone or kTaskFailure.
  FaultKind TaskFault(TaskPhase phase, int task_index, int attempt) const;

  // Record-level fault for the `record_seq`-th record emitted by one map
  // attempt: kNone, kShuffleDrop, or kShuffleCorrupt.
  FaultKind ShuffleRecordFault(TaskPhase phase, int task_index, int attempt,
                               uint64_t record_seq) const;

 private:
  FaultSpec spec_;
};

// Per-attempt filter the shuffle emitter consults for every emitted record.
// Tracks the record sequence number and remembers the first poisoning fault:
// an attempt with any dropped or corrupted record must fail (checksum
// detection) so that committed output equals the fault-free output.
class ShuffleFaultFilter {
 public:
  ShuffleFaultFilter(const FaultInjector& injector, TaskPhase phase,
                     int task_index, int attempt)
      : injector_(injector),
        phase_(phase),
        task_index_(task_index),
        attempt_(attempt) {}

  // Fault verdict for the next emitted record. kShuffleDrop means the record
  // must not be buffered; kShuffleCorrupt buffers it (it is discarded with
  // the failed attempt anyway).
  FaultKind Next() {
    const FaultKind kind = injector_.ShuffleRecordFault(
        phase_, task_index_, attempt_, record_seq_++);
    if (kind == FaultKind::kShuffleDrop) ++dropped_;
    if (kind == FaultKind::kShuffleCorrupt) ++corrupted_;
    return kind;
  }

  uint64_t dropped() const { return dropped_; }
  uint64_t corrupted() const { return corrupted_; }

  // OK when no record was poisoned; otherwise the failure this attempt must
  // report.
  Status AttemptStatus() const;

 private:
  const FaultInjector& injector_;
  TaskPhase phase_;
  int task_index_;
  int attempt_;
  uint64_t record_seq_ = 0;
  uint64_t dropped_ = 0;
  uint64_t corrupted_ = 0;
};

}  // namespace dod

#endif  // DOD_MAPREDUCE_FAULT_INJECTION_H_
