// Copyright 2026 The DOD Authors.

#include "runtime/parallel_executor.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"

namespace dod {

int ParallelExecutor::DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp<unsigned>(hw, 1, kMaxThreads));
}

ParallelExecutor::ParallelExecutor(int num_threads)
    : num_threads_(num_threads <= 0 ? DefaultThreadCount() : num_threads) {
  if (num_threads_ == 1) return;
  workers_.reserve(static_cast<size_t>(num_threads_));
  for (int i = 0; i < num_threads_; ++i) {
    workers_.emplace_back(&ParallelExecutor::WorkerMain, this,
                          static_cast<size_t>(i));
  }
}

ParallelExecutor::~ParallelExecutor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

Status ParallelExecutor::RunTasks(size_t n,
                                  const std::function<Status(size_t)>& fn) {
  if (n == 0) return Status::Ok();
  if (workers_.empty()) {
    for (size_t i = 0; i < n; ++i) {
      DOD_RETURN_IF_ERROR(fn(i));
    }
    return Status::Ok();
  }

  std::unique_lock<std::mutex> lock(mutex_);
  fn_ = &fn;
  num_tasks_ = n;
  error_index_ = n;
  active_workers_ = workers_.size();
  next_index_.store(0, std::memory_order_relaxed);
  ++generation_;
  wake_.notify_all();
  done_.wait(lock, [this] { return active_workers_ == 0; });
  return error_index_ < n ? std::move(error_) : Status::Ok();
}

void ParallelExecutor::WorkerMain(size_t worker_index) {
  SetThreadLogTag("w" + std::to_string(worker_index));
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    const std::function<Status(size_t)>& fn = *fn_;
    const size_t n = num_tasks_;
    lock.unlock();
    for (size_t i = next_index_.fetch_add(1, std::memory_order_relaxed);
         i < n; i = next_index_.fetch_add(1, std::memory_order_relaxed)) {
      Status status = fn(i);
      if (status.ok()) continue;
      // Lowest failing index wins so the reported error does not depend
      // on scheduling order.
      std::lock_guard<std::mutex> error_lock(mutex_);
      if (i < error_index_) {
        error_index_ = i;
        error_ = std::move(status);
      }
    }
    lock.lock();
    // The last worker out of the batch releases the caller.
    if (--active_workers_ == 0) done_.notify_one();
  }
}

}  // namespace dod
