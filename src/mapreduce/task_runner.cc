// Copyright 2026 The DOD Authors.

#include "mapreduce/task_runner.h"

#include <new>
#include <string>

#include "common/logging.h"
#include "common/timer.h"
#include "observability/trace.h"

namespace dod {

Status TaskRunner::RunTask(TaskPhase phase, int task_index,
                           double extra_seconds,
                           const std::function<Status(int attempt)>& attempt_body,
                           const std::function<void()>& commit,
                           JobStats& task_stats,
                           std::vector<double>& slot_costs) const {
  Status last_status;
  FaultKind last_fault = FaultKind::kNone;
  for (int attempt = 0; attempt < max_attempts_; ++attempt) {
    if (control_ != nullptr) {
      // A fired stop condition aborts the task before the attempt starts:
      // no attempt accounting — the task simply did not run.
      Status control_status = control_->Check();
      if (!control_status.ok()) {
        return Status(control_status.code(),
                      std::string(TaskPhaseName(phase)) + " task " +
                          std::to_string(task_index) + " not started: " +
                          control_status.message());
      }
    }
    if (attempt > 0) ++task_stats.task_retries;
    ++task_stats.task_attempts;

    const FaultKind fault = injector_.TaskFault(phase, task_index, attempt);
    const ScopedLogTag tag(std::string(TaskPhaseName(phase)) +
                           std::to_string(task_index) + ".a" +
                           std::to_string(attempt));
    // One trace span per attempt; its args identify the attempt and carry
    // the injected fault and outcome, so spans reconcile exactly with the
    // task_attempts / task_failures counters.
    trace::Span span("task", phase == TaskPhase::kMap ? "map_attempt"
                                                      : "reduce_attempt");
    span.Arg("task", task_index).Arg("attempt", attempt);
    StopWatch watch;
    Status status;
    try {
      status = attempt_body(attempt);
    } catch (const std::bad_alloc&) {
      // Project code is exception-free, but the standard library's
      // allocators are not; surface allocation failure as the structured
      // budget error instead of tearing down the process.
      status = Status::ResourceExhausted(
          std::string(TaskPhaseName(phase)) + " task " +
          std::to_string(task_index) + " attempt " + std::to_string(attempt) +
          " failed to allocate (std::bad_alloc)");
    }
    const double measured = watch.ElapsedSeconds();

    if (status.ok() && fault == FaultKind::kTaskFailure) {
      status = Status::Unavailable("injected task-failure");
    }
    if (fault != FaultKind::kNone) span.Arg("fault", FaultKindName(fault));
    span.Arg("status", status.ok() ? "ok" : "failed");
    // Every attempt, failed or not, did its work; its slot time is spent.
    slot_costs.push_back(measured + extra_seconds);
    if (status.ok()) {
      commit();
      return Status::Ok();
    }
    ++task_stats.task_failures;
    // Not a task fault: a run-level stop condition or an exhausted budget
    // that a retry would only hit again. Propagate immediately.
    if (IsTerminalTaskStatus(status.code())) return status;
    last_status = status;
    last_fault = fault;
  }

  const StatusCode code = last_status.code() == StatusCode::kOk
                              ? StatusCode::kUnavailable
                              : last_status.code();
  std::string message = std::string(TaskPhaseName(phase)) + " task " +
                        std::to_string(task_index) + " failed after " +
                        std::to_string(max_attempts_) + " attempts";
  if (last_fault != FaultKind::kNone) {
    // Poisoned-shuffle and user-status failures already describe themselves
    // in the attempt status; injected task faults are named here.
    message += std::string(" (last fault: ") + FaultKindName(last_fault) + ")";
  }
  message += ": " + last_status.message();
  return Status(code, std::move(message));
}

}  // namespace dod
