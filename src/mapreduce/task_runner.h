// Copyright 2026 The DOD Authors.
//
// Fault-tolerant task attempt scheduling for the MapReduce engine.
//
// Each logical map/reduce task runs as a sequence of *attempts* with a
// bounded retry budget, mirroring Hadoop's TaskAttempt machinery:
//
//   * a failed attempt (injected fault, poisoned shuffle, or a non-OK user
//     status) is retried immediately; its spent slot time is charged into
//     the stage's task costs;
//   * a terminal status (deadline, cancellation, exhausted resource
//     budget) is returned at once without burning the budget;
//   * a task that exhausts its budget degrades into a structured error
//     naming the task, the attempt count, and the last fault — the job
//     returns that error instead of aborting the process.
//
// Attempt bodies must stage their side effects and publish them only via
// the separate `commit` callback, which the runner invokes exactly once,
// for the successful attempt. This is the "output committer" contract
// that makes re-execution safe.
//
// Concurrency: one TaskRunner serves a whole job, and the parallel
// runtime calls RunTask for distinct tasks concurrently. The runner holds
// no mutable state: RunTask writes all attempt accounting into the
// caller-supplied per-task JobStats delta (merged by the engine after the
// phase barrier — order-independent, see job_stats.h). The attempt
// schedule of each task is a pure function of the fault injector and the
// user code, so it is identical for every thread count.

#ifndef DOD_MAPREDUCE_TASK_RUNNER_H_
#define DOD_MAPREDUCE_TASK_RUNNER_H_

#include <functional>
#include <vector>

#include "common/status.h"
#include "durability/run_control.h"
#include "mapreduce/fault_injection.h"
#include "mapreduce/job_stats.h"

namespace dod {

// True for status codes that must not be retried: the failure is not a
// task fault but a run-level stop condition (deadline, cancellation) or a
// resource budget that a retry would only hit again. The runner returns
// these immediately, and the engine propagates them with partial-progress
// stats instead of burning the attempt budget.
inline bool IsTerminalTaskStatus(StatusCode code) {
  return code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kCancelled ||
         code == StatusCode::kResourceExhausted;
}

// Runs logical tasks as retried attempts for one job. Stateless; safe to
// call from concurrent worker threads for distinct tasks.
class TaskRunner {
 public:
  // `max_attempts` is the total attempts per task, including the first
  // (Hadoop mapreduce.map.maxattempts; >= 1, checked by the engine's
  // ValidateJob). `control` (optional, borrowed) is consulted before every
  // attempt; a fired deadline or cancellation aborts the task with the
  // structured status instead of starting the attempt.
  TaskRunner(int max_attempts, const FaultInjector& injector,
             const RunControl* control = nullptr)
      : max_attempts_(max_attempts), injector_(injector), control_(control) {}

  // Executes one logical task. `attempt_body(attempt)` runs the user code
  // into attempt-local staging and reports its status; `commit` publishes
  // the successful attempt's staging (into per-task storage when running
  // under the parallel executor). `extra_seconds` is charged on top of
  // each attempt's measured time (split I/O scan). Attempt/failure/retry
  // counters accrue into `task_stats`, and every attempt's charged cost is
  // appended to `slot_costs` — one entry per slot occupation, exactly what
  // the stage makespan schedules.
  Status RunTask(TaskPhase phase, int task_index, double extra_seconds,
                 const std::function<Status(int attempt)>& attempt_body,
                 const std::function<void()>& commit, JobStats& task_stats,
                 std::vector<double>& slot_costs) const;

 private:
  int max_attempts_;
  const FaultInjector& injector_;
  const RunControl* control_;
};

}  // namespace dod

#endif  // DOD_MAPREDUCE_TASK_RUNNER_H_
