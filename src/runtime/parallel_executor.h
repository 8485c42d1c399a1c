// Copyright 2026 The DOD Authors.
//
// Deterministic parallel-for over task indices.
//
// The MapReduce engine's unit of parallelism is the *task* (one map split,
// one reduce partition), and every task is self-sufficient: a reduce
// partition carries its whole supporting area, a map split only its own
// blocks. So the runtime is one primitive: RunTasks(n, fn) runs fn(0) ..
// fn(n - 1) on the executor's workers and acts as a barrier, returning only
// when every launched task has finished. Determinism is split between the
// executor and its caller:
//
//   * the executor guarantees each index runs exactly once and that error
//     selection is order-independent (the failing task with the lowest
//     index wins, regardless of which thread noticed first);
//   * the caller keeps all task side effects in per-task staging and
//     publishes them *after* the barrier in task-index order, which makes
//     the combined output byte-identical for every thread count.
//
// With num_threads >= 2 the executor owns that many persistent workers.
// They park on one condition variable between batches; a batch wakes all
// of them, and each claims the next unclaimed index with one atomic
// fetch_add until the indices run out. Tasks are coarse (milliseconds to
// seconds), so claim order is the only scheduling there is.
//
// With num_threads == 1 no worker exists: tasks run inline on the calling
// thread in index order, stopping at the first failure — exactly the
// engine's historical sequential loop, preserved so `--threads=1`
// reproduces it bit for bit (including not running tasks after an error).

#ifndef DOD_RUNTIME_PARALLEL_EXECUTOR_H_
#define DOD_RUNTIME_PARALLEL_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace dod {

// Largest worker count a job or streaming detector accepts. Callers
// validate against it before constructing an executor, so a typo'd thread
// count becomes an InvalidArgument instead of thousands of thread starts.
inline constexpr int kMaxThreads = 1024;

class ParallelExecutor {
 public:
  // num_threads <= 0 selects DefaultThreadCount() (all hardware threads);
  // 1 is the sequential inline path; >= 2 starts that many workers.
  explicit ParallelExecutor(int num_threads);
  // Wakes and joins the workers. Must not race a RunTasks call.
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  // std::thread::hardware_concurrency clamped to [1, kMaxThreads] (the
  // standard allows it to report 0 on exotic platforms).
  static int DefaultThreadCount();

  // Worker threads executing tasks (>= 1; 1 means sequential).
  int num_threads() const { return num_threads_; }
  bool sequential() const { return workers_.empty(); }

  // Runs fn(0) .. fn(n - 1) and waits for all of them (barrier).
  //
  // Sequential: index order, stops at the first non-OK status and returns
  // it. Parallel: every task runs to completion even when some fail, and
  // the non-OK status of the lowest failing index is returned — the same
  // error a sequential run would have surfaced.
  //
  // `fn` is invoked concurrently in parallel mode and must confine its
  // side effects to per-index state. Not reentrant: do not call RunTasks
  // from inside a task, nor from two threads at once.
  Status RunTasks(size_t n, const std::function<Status(size_t)>& fn);

 private:
  // Parks until a batch is published (or shutdown), claims indices until
  // they run out, then checks out of the batch.
  void WorkerMain(size_t worker_index);

  int num_threads_;
  std::vector<std::thread> workers_;

  // Next unclaimed index of the current batch; reset (under mutex_) only
  // while every worker is parked, so no stale claim can leak across
  // batches.
  std::atomic<size_t> next_index_{0};

  // Everything below is guarded by mutex_.
  std::mutex mutex_;
  std::condition_variable wake_;  // workers park here between batches
  std::condition_variable done_;  // RunTasks waits here for the barrier
  const std::function<Status(size_t)>* fn_ = nullptr;
  size_t num_tasks_ = 0;
  // Bumped once per published batch; a worker runs each generation once.
  uint64_t generation_ = 0;
  // Workers that have not yet checked out of the current batch.
  size_t active_workers_ = 0;
  size_t error_index_ = 0;
  Status error_;
  bool stop_ = false;
};

}  // namespace dod

#endif  // DOD_RUNTIME_PARALLEL_EXECUTOR_H_
