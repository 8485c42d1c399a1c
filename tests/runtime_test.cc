// Copyright 2026 The DOD Authors.
//
// The parallel runtime: the deterministic ParallelExecutor fan-out,
// order-independent Counters/JobStats merging, thread-tagged logging, and
// the engine-level guarantee the whole design exists for — MapReduce
// output that is byte-identical for every thread count.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "mapreduce/job.h"
#include "mapreduce/job_stats.h"
#include "runtime/parallel_executor.h"

namespace dod {
namespace {

// ---------------------------------------------------------------------------
// ParallelExecutor

// Counts down to zero; lets tasks rendezvous without relying on the
// executor machinery under test.
class Latch {
 public:
  explicit Latch(int count) : count_(count) {}

  void CountDown() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (--count_ == 0) cv_.notify_all();
  }

  // False when `timeout` passes before the count reaches zero.
  bool WaitFor(std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, timeout, [&] { return count_ == 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int count_;
};

TEST(ParallelExecutorTest, DefaultThreadCountIsAtLeastOne) {
  EXPECT_GE(ParallelExecutor::DefaultThreadCount(), 1);
  EXPECT_LE(ParallelExecutor::DefaultThreadCount(), kMaxThreads);
}

TEST(ParallelExecutorTest, NonPositiveThreadCountSelectsHardwareDefault) {
  ParallelExecutor all(0);
  EXPECT_EQ(all.num_threads(), ParallelExecutor::DefaultThreadCount());
  ParallelExecutor also_all(-3);
  EXPECT_EQ(also_all.num_threads(), ParallelExecutor::DefaultThreadCount());
}

TEST(ParallelExecutorTest, SingleThreadRunsInlineInIndexOrder) {
  ParallelExecutor executor(1);
  ASSERT_TRUE(executor.sequential());
  std::vector<size_t> order;
  const Status status = executor.RunTasks(6, [&](size_t i) {
    order.push_back(i);  // unsynchronized on purpose: must be inline
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(ParallelExecutorTest, SequentialStopsAtFirstErrorLikeTheOldLoop) {
  ParallelExecutor executor(1);
  std::vector<size_t> ran;
  const Status status = executor.RunTasks(6, [&](size_t i) {
    ran.push_back(i);
    return i == 2 ? Status::Internal("boom") : Status::Ok();
  });
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  // Tasks 3..5 never start — the historical sequential contract.
  EXPECT_EQ(ran, (std::vector<size_t>{0, 1, 2}));
}

TEST(ParallelExecutorTest, WorkersRunTasksConcurrently) {
  // Each of the four tasks blocks until all four have arrived, which only
  // happens if four workers hold one task each at the same time. An
  // executor that serialized tasks would time the first one out.
  constexpr int kThreads = 4;
  ParallelExecutor executor(kThreads);
  ASSERT_FALSE(executor.sequential());
  Latch arrived(kThreads);
  const Status status = executor.RunTasks(kThreads, [&](size_t i) {
    arrived.CountDown();
    return arrived.WaitFor(std::chrono::seconds(30))
               ? Status::Ok()
               : Status::Internal("task " + std::to_string(i) +
                                  " waited alone");
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(ParallelExecutorTest, ParallelRunsEveryIndexExactlyOnce) {
  ParallelExecutor executor(4);
  constexpr size_t kTasks = 10000;
  std::vector<std::atomic<int>> runs(kTasks);
  for (auto& r : runs) r.store(0);
  const Status status = executor.RunTasks(kTasks, [&](size_t i) {
    runs[i].fetch_add(1);
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok());
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
}

TEST(ParallelExecutorTest, ParallelReturnsLowestFailingIndexError) {
  ParallelExecutor executor(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> ran{0};
    const Status status = executor.RunTasks(16, [&](size_t i) {
      ran.fetch_add(1);
      if (i == 3 || i == 11) {
        return Status::Internal("task " + std::to_string(i));
      }
      return Status::Ok();
    });
    EXPECT_EQ(status.code(), StatusCode::kInternal);
    // Whichever thread finished first, the reported error is the one a
    // sequential run would have hit: the lowest failing index.
    EXPECT_EQ(status.message(), "task 3");
    // And the barrier still ran everything.
    EXPECT_EQ(ran.load(), 16);
  }
}

TEST(ParallelExecutorTest, ZeroTasksIsANoOp) {
  ParallelExecutor executor(4);
  const Status status =
      executor.RunTasks(0, [&](size_t) { return Status::Internal("never"); });
  EXPECT_TRUE(status.ok());
}

TEST(ParallelExecutorTest, ExecutorIsReusableAcrossBatches) {
  // Batches of varied size, including fewer tasks than workers and a
  // failing batch, must not leak claims or errors into the next one.
  ParallelExecutor executor(3);
  for (int batch = 0; batch < 50; ++batch) {
    const size_t n = static_cast<size_t>(1 + batch % 7);
    std::atomic<size_t> ran{0};
    const Status status = executor.RunTasks(n, [&](size_t i) {
      ran.fetch_add(1);
      return batch % 10 == 9 && i == 0 ? Status::Internal("fail")
                                       : Status::Ok();
    });
    EXPECT_EQ(ran.load(), n) << "batch " << batch;
    EXPECT_EQ(status.ok(), batch % 10 != 9) << "batch " << batch;
  }
}

// ---------------------------------------------------------------------------
// Thread-tagged logging (satellite of the parallel runtime: log lines from
// concurrent tasks must be attributable and must not interleave mid-line).

TEST(LoggingTest, ScopedLogTagsNestAndRestore) {
  SetThreadLogTag("w3");
  EXPECT_EQ(ThreadLogTag(), "w3");
  {
    ScopedLogTag task("map7.a0");
    EXPECT_EQ(ThreadLogTag(), "w3/map7.a0");
    {
      ScopedLogTag inner("spec");
      EXPECT_EQ(ThreadLogTag(), "w3/map7.a0/spec");
    }
    EXPECT_EQ(ThreadLogTag(), "w3/map7.a0");
  }
  EXPECT_EQ(ThreadLogTag(), "w3");
  SetThreadLogTag("");
  EXPECT_EQ(ThreadLogTag(), "");
}

TEST(LoggingTest, ExecutorWorkersCarryTheirOwnTags) {
  ParallelExecutor executor(2);
  std::vector<std::string> tags(8);
  ASSERT_TRUE(executor
                  .RunTasks(tags.size(),
                            [&](size_t i) {
                              tags[i] = ThreadLogTag();
                              return Status::Ok();
                            })
                  .ok());
  for (const std::string& tag : tags) {
    EXPECT_TRUE(tag == "w0" || tag == "w1") << tag;
  }
}

// ---------------------------------------------------------------------------
// Order-independent merging: the algebraic property the deterministic
// commit relies on. Counters and JobStats deltas merged in any permutation
// must produce identical totals.

Counters MakeCounters(std::initializer_list<std::pair<const char*, uint64_t>>
                          entries) {
  Counters c;
  for (const auto& [name, value] : entries) c.Increment(name, value);
  return c;
}

TEST(MergeOrderTest, CountersMergeIsOrderIndependent) {
  const std::vector<Counters> deltas = {
      MakeCounters({{"a", 1}, {"b", 10}}),
      MakeCounters({{"b", 5}, {"c", 7}}),
      MakeCounters({{"a", 2}}),
      MakeCounters({{"c", 1}, {"d", 100}}),
  };

  std::vector<size_t> perm(deltas.size());
  std::iota(perm.begin(), perm.end(), 0);
  Counters reference;
  for (size_t i : perm) reference.MergeFrom(deltas[i]);

  while (std::next_permutation(perm.begin(), perm.end())) {
    Counters merged;
    for (size_t i : perm) merged.MergeFrom(deltas[i]);
    EXPECT_EQ(merged.values(), reference.values());
  }
}

JobStats MakeDelta(int salt) {
  JobStats s;
  s.map_task_seconds = {0.1 * salt, 0.2 * salt};
  s.reduce_task_seconds = {0.3 * salt};
  s.records_mapped = 100 + salt;
  s.records_shuffled = 90 + salt;
  s.bytes_shuffled = 1000 + salt;
  s.groups_reduced = 10 + salt;
  s.stage_times.map_seconds = 0.5 * salt;
  s.stage_times.shuffle_seconds = 0.25 * salt;
  s.stage_times.reduce_seconds = 0.125 * salt;
  s.task_attempts = 3 + salt;
  s.task_failures = salt;
  s.task_retries = salt;
  s.shuffle_records_dropped = 2 * salt;
  s.shuffle_records_corrupted = salt;
  s.map_wall_seconds = 0.05 * salt;  // gauge: max survives
  s.reduce_wall_seconds = 0.04 * salt;
  s.threads_used = 1 + salt % 4;
  s.counters.Increment("groups_seen", salt);
  return s;
}

TEST(MergeOrderTest, JobStatsMergeTotalsAreOrderIndependent) {
  std::vector<JobStats> deltas;
  for (int salt = 1; salt <= 4; ++salt) deltas.push_back(MakeDelta(salt));

  std::vector<size_t> perm(deltas.size());
  std::iota(perm.begin(), perm.end(), 0);
  JobStats reference;
  for (size_t i : perm) reference.MergeFrom(deltas[i]);

  while (std::next_permutation(perm.begin(), perm.end())) {
    JobStats merged;
    for (size_t i : perm) merged.MergeFrom(deltas[i]);

    EXPECT_EQ(merged.records_mapped, reference.records_mapped);
    EXPECT_EQ(merged.records_shuffled, reference.records_shuffled);
    EXPECT_EQ(merged.bytes_shuffled, reference.bytes_shuffled);
    EXPECT_EQ(merged.groups_reduced, reference.groups_reduced);
    EXPECT_DOUBLE_EQ(merged.stage_times.map_seconds,
                     reference.stage_times.map_seconds);
    EXPECT_DOUBLE_EQ(merged.stage_times.shuffle_seconds,
                     reference.stage_times.shuffle_seconds);
    EXPECT_DOUBLE_EQ(merged.stage_times.reduce_seconds,
                     reference.stage_times.reduce_seconds);
    EXPECT_EQ(merged.task_attempts, reference.task_attempts);
    EXPECT_EQ(merged.task_failures, reference.task_failures);
    EXPECT_EQ(merged.task_retries, reference.task_retries);
    EXPECT_EQ(merged.shuffle_records_dropped,
              reference.shuffle_records_dropped);
    EXPECT_EQ(merged.shuffle_records_corrupted,
              reference.shuffle_records_corrupted);
    EXPECT_DOUBLE_EQ(merged.map_wall_seconds, reference.map_wall_seconds);
    EXPECT_DOUBLE_EQ(merged.reduce_wall_seconds,
                     reference.reduce_wall_seconds);
    EXPECT_EQ(merged.threads_used, reference.threads_used);
    EXPECT_EQ(merged.counters.values(), reference.counters.values());

    // The per-slot cost vectors concatenate in merge order, so only their
    // multisets are order-independent — the engine always folds them in
    // task-index order, which pins the final ordering too.
    std::vector<double> a = merged.map_task_seconds;
    std::vector<double> b = reference.map_task_seconds;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

// ---------------------------------------------------------------------------
// The end-to-end guarantee: a MapReduce job commits byte-identical output,
// counters, and accounting for every thread count.

class ModMapper : public Mapper<int, int> {
 public:
  void Map(size_t split_index, Emitter<int, int>& out) override {
    const int base = static_cast<int>(split_index) * 100;
    for (int v = base; v < base + 100; ++v) out.Emit(v % 10, v);
  }
};

struct KeyCount {
  int key;
  int count;
  bool operator==(const KeyCount& other) const {
    return key == other.key && count == other.count;
  }
};

class CountReducer : public Reducer<int, int, KeyCount> {
 public:
  void Reduce(const int& key, std::vector<int>& values,
              std::vector<KeyCount>& out, Counters& counters) override {
    out.push_back(KeyCount{key, static_cast<int>(values.size())});
    counters.Increment("groups_seen");
  }
};

JobOutput<KeyCount> RunWithThreads(int num_threads) {
  ModMapper mapper;
  CountReducer reducer;
  JobSpec spec;
  spec.num_reduce_tasks = 3;
  spec.num_threads = num_threads;
  spec.cluster = ClusterSpec::Local(4);
  return RunMapReduce<int, int, KeyCount>(
             /*num_splits=*/9, mapper, reducer,
             [](const int& key) { return key % 3; }, spec)
      .ValueOrDie();
}

TEST(ParallelDeterminismTest, AnyThreadCountCommitsIdenticalResults) {
  const JobOutput<KeyCount> sequential = RunWithThreads(1);
  ASSERT_EQ(sequential.stats.threads_used, 1);

  for (int threads : {2, 8}) {
    const JobOutput<KeyCount> parallel = RunWithThreads(threads);
    EXPECT_EQ(parallel.stats.threads_used, threads);
    EXPECT_EQ(parallel.output, sequential.output) << threads << " threads";
    EXPECT_EQ(parallel.stats.counters.values(),
              sequential.stats.counters.values());
    EXPECT_EQ(parallel.stats.records_mapped, sequential.stats.records_mapped);
    EXPECT_EQ(parallel.stats.records_shuffled,
              sequential.stats.records_shuffled);
    EXPECT_EQ(parallel.stats.bytes_shuffled, sequential.stats.bytes_shuffled);
    EXPECT_EQ(parallel.stats.groups_reduced, sequential.stats.groups_reduced);
    // Per-slot costs are *measured* attempt durations — their values vary
    // run to run even sequentially, but the attempt schedule (and hence
    // the slot count) is thread-count-invariant.
    EXPECT_EQ(parallel.stats.map_task_seconds.size(),
              sequential.stats.map_task_seconds.size());
    EXPECT_EQ(parallel.stats.reduce_task_seconds.size(),
              sequential.stats.reduce_task_seconds.size());
  }
}

TEST(ParallelDeterminismTest, MoreThreadsThanTasksIsFine) {
  ModMapper mapper;
  CountReducer reducer;
  JobSpec spec;
  spec.num_reduce_tasks = 1;
  spec.num_threads = 16;
  const auto job = RunMapReduce<int, int, KeyCount>(
                       /*num_splits=*/2, mapper, reducer,
                       [](const int&) { return 0; }, spec)
                       .ValueOrDie();
  EXPECT_EQ(job.stats.groups_reduced, 10u);
  EXPECT_EQ(job.stats.records_mapped, 200u);
}

TEST(ParallelDeterminismTest, EngineRefusesThreadCountsPastTheCap) {
  ModMapper mapper;
  CountReducer reducer;
  JobSpec spec;
  spec.num_threads = 1 << 20;
  const auto job = RunMapReduce<int, int, KeyCount>(
      /*num_splits=*/2, mapper, reducer, [](const int&) { return 0; }, spec);
  ASSERT_FALSE(job.ok());
  EXPECT_EQ(job.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParallelDeterminismTest, UserErrorsSurfaceIdenticallyInParallel) {
  class PoisonSplitMapper : public Mapper<int, int> {
   public:
    Status TryMap(size_t split_index, Emitter<int, int>& out) override {
      if (split_index >= 2) {
        return Status::Internal("bad split " + std::to_string(split_index));
      }
      out.Emit(static_cast<int>(split_index), 1);
      return Status::Ok();
    }
  };
  CountReducer reducer;
  for (int threads : {1, 4}) {
    PoisonSplitMapper mapper;
    JobSpec spec;
    spec.num_reduce_tasks = 2;
    spec.num_threads = threads;
    spec.max_task_attempts = 2;
    const auto job = RunMapReduce<int, int, KeyCount>(
        6, mapper, reducer, [](const int&) { return 0; }, spec);
    ASSERT_FALSE(job.ok());
    EXPECT_EQ(job.status().code(), StatusCode::kInternal);
    // Splits 2..5 all poison, but the committed error is always the
    // lowest-index one, matching the sequential run.
    const std::string message(job.status().message());
    EXPECT_NE(message.find("map task 2"), std::string::npos)
        << threads << " threads: " << message;
    EXPECT_NE(message.find("bad split 2"), std::string::npos)
        << threads << " threads: " << message;
  }
}

}  // namespace
}  // namespace dod
