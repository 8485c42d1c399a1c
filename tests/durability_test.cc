// Copyright 2026 The DOD Authors.
//
// Durable execution: checkpoint store round-trips, crash-at-task-N
// injection with resume exactness (engine and pipeline level), deadline /
// cancellation propagation with partial-progress stats, terminal statuses
// bypassing the retry budget, and memory-budget guards (arena charges and
// the columnar shuffle's deterministic degrade).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "data/generators.h"
#include "durability/checkpoint.h"
#include "durability/memory_budget.h"
#include "durability/payload.h"
#include "durability/run_control.h"
#include "detection/partition_view.h"
#include "mapreduce/job.h"
#include "mapreduce/shuffle.h"
#include "observability/metrics.h"

namespace dod {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const char* tag) {
  const std::string dir = testing::TempDir() + "/dod_durability_" + tag + "_" +
                          std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir;
}

// ---------------------------------------------------------------------------
// Payload codec.

TEST(PayloadTest, RoundTripAllTypes) {
  PayloadWriter writer;
  writer.U8(7);
  writer.U32(0xDEADBEEFu);
  writer.U64(0xFFFFFFFFFFFFFFFFULL);
  writer.F64(-2.5);
  writer.String("hello");
  writer.String("");
  writer.F64Vec({1.0, 2.0, 3.0});
  writer.F64Vec({});

  PayloadReader reader(writer.str());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double f64 = 0.0;
  std::string s;
  std::vector<double> v;
  ASSERT_TRUE(reader.U8(&u8).ok());
  EXPECT_EQ(u8, 7);
  ASSERT_TRUE(reader.U32(&u32).ok());
  EXPECT_EQ(u32, 0xDEADBEEFu);
  ASSERT_TRUE(reader.U64(&u64).ok());
  EXPECT_EQ(u64, 0xFFFFFFFFFFFFFFFFULL);
  ASSERT_TRUE(reader.F64(&f64).ok());
  EXPECT_EQ(f64, -2.5);
  ASSERT_TRUE(reader.String(&s).ok());
  EXPECT_EQ(s, "hello");
  ASSERT_TRUE(reader.String(&s).ok());
  EXPECT_EQ(s, "");
  ASSERT_TRUE(reader.F64Vec(&v).ok());
  EXPECT_EQ(v, (std::vector<double>{1.0, 2.0, 3.0}));
  ASSERT_TRUE(reader.F64Vec(&v).ok());
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(reader.ExpectDone().ok());
}

TEST(PayloadTest, TruncationIsStructuredAndSticky) {
  PayloadWriter writer;
  writer.U64(42);
  PayloadReader reader(std::string_view(writer.str()).substr(0, 3));
  uint64_t out = 0;
  const Status first = reader.U64(&out);
  EXPECT_EQ(first.code(), StatusCode::kIoError);
  // Failed readers keep failing instead of reading garbage.
  uint8_t b = 0;
  EXPECT_FALSE(reader.U8(&b).ok());
  EXPECT_FALSE(reader.ExpectDone().ok());
}

TEST(PayloadTest, TrailingBytesFailExpectDone) {
  PayloadWriter writer;
  writer.U32(1);
  writer.U32(2);
  PayloadReader reader(writer.str());
  uint32_t out = 0;
  ASSERT_TRUE(reader.U32(&out).ok());
  EXPECT_FALSE(reader.ExpectDone().ok());
}

// ---------------------------------------------------------------------------
// Checkpoint store.

TEST(CheckpointStoreTest, CommitReopenAndReload) {
  const std::string dir = FreshDir("store");
  auto store =
      CheckpointStore::Open(dir, "job-a", /*resume=*/false).ValueOrDie();
  EXPECT_EQ(store->CommittedTasks(), 0u);
  EXPECT_FALSE(store->HasTask("map", 0));
  ASSERT_TRUE(store->CommitTask("map", 0, "payload-m0").ok());
  ASSERT_TRUE(store->CommitTask("reduce", 2, "payload-r2").ok());
  EXPECT_TRUE(store->HasTask("map", 0));
  EXPECT_EQ(store->CommittedTasks(), 2u);

  // A new process resuming the same job sees the committed records.
  auto resumed =
      CheckpointStore::Open(dir, "job-a", /*resume=*/true).ValueOrDie();
  EXPECT_EQ(resumed->CommittedTasks(), 2u);
  EXPECT_EQ(resumed->LoadTask("map", 0).ValueOrDie(), "payload-m0");
  EXPECT_EQ(resumed->LoadTask("reduce", 2).ValueOrDie(), "payload-r2");
  EXPECT_EQ(resumed->LoadTask("reduce", 5).status().code(),
            StatusCode::kNotFound);
}

TEST(CheckpointStoreTest, OpenWithoutResumeDiscardsPriorRecords) {
  const std::string dir = FreshDir("fresh");
  {
    auto store =
        CheckpointStore::Open(dir, "job-a", /*resume=*/false).ValueOrDie();
    ASSERT_TRUE(store->CommitTask("map", 0, "old").ok());
  }
  auto store =
      CheckpointStore::Open(dir, "job-a", /*resume=*/false).ValueOrDie();
  EXPECT_EQ(store->CommittedTasks(), 0u);
  EXPECT_FALSE(fs::exists(dir + "/MANIFEST.log"));
  EXPECT_FALSE(fs::exists(dir + "/DATA.log"));
}

TEST(CheckpointStoreTest, RefusesResumeAcrossJobKeys) {
  const std::string dir = FreshDir("jobkey");
  {
    auto store =
        CheckpointStore::Open(dir, "job-a", /*resume=*/false).ValueOrDie();
    ASSERT_TRUE(store->CommitTask("map", 0, "x").ok());
  }
  const auto other = CheckpointStore::Open(dir, "job-b", /*resume=*/true);
  EXPECT_EQ(other.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointStoreTest, DetectsTruncationAndCorruption) {
  const std::string dir = FreshDir("corrupt");
  auto store =
      CheckpointStore::Open(dir, "job-a", /*resume=*/false).ValueOrDie();
  ASSERT_TRUE(store->CommitTask("reduce", 1, "0123456789").ok());

  // Truncate the segment: the record's slice overruns what is on disk.
  const std::string segment_path = dir + "/DATA.log";
  { std::ofstream(segment_path, std::ios::trunc) << "0123"; }
  auto reopened =
      CheckpointStore::Open(dir, "job-a", /*resume=*/true).ValueOrDie();
  EXPECT_EQ(reopened->LoadTask("reduce", 1).status().code(),
            StatusCode::kIoError);

  // Same length, flipped byte: checksum mismatch.
  { std::ofstream(segment_path, std::ios::trunc) << "0123456780"; }
  EXPECT_EQ(reopened->LoadTask("reduce", 1).status().code(),
            StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// Engine-level crash / resume / control / budget.

struct KeySum {
  int key = 0;
  int64_t sum = 0;
  bool operator==(const KeySum& other) const {
    return key == other.key && sum == other.sum;
  }
};

class RangeMapper : public Mapper<int, int> {
 public:
  explicit RangeMapper(int per_split) : per_split_(per_split) {}
  void Map(size_t split_index, Emitter<int, int>& out) override {
    const int base = static_cast<int>(split_index) * per_split_;
    for (int v = base; v < base + per_split_; ++v) out.Emit(v % 7, v);
  }

 private:
  int per_split_;
};

class SumReducer : public Reducer<int, int, KeySum> {
 public:
  void Reduce(const int& key, std::vector<int>& values,
              std::vector<KeySum>& out, Counters& counters) override {
    int64_t sum = 0;
    for (int v : values) sum += v;
    out.push_back(KeySum{key, sum});
    counters.Increment("groups_seen");
  }
};

JobSpec BaseSpec(int threads, ShuffleMode shuffle) {
  JobSpec spec;
  spec.num_reduce_tasks = 3;
  spec.num_threads = threads;
  spec.cluster = ClusterSpec::Local(4);
  spec.shuffle = shuffle;
  return spec;
}

Result<JobOutput<KeySum>> RunSumJob(const JobSpec& spec) {
  RangeMapper mapper(100);
  SumReducer reducer;
  return RunMapReduce<int, int, KeySum>(
      /*num_splits=*/4, mapper, reducer,
      [](const int& key) { return key % 3; }, spec);
}

void ExpectSameJob(const JobOutput<KeySum>& a, const JobOutput<KeySum>& b) {
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.stats.records_mapped, b.stats.records_mapped);
  EXPECT_EQ(a.stats.records_shuffled, b.stats.records_shuffled);
  EXPECT_EQ(a.stats.bytes_shuffled, b.stats.bytes_shuffled);
  EXPECT_EQ(a.stats.groups_reduced, b.stats.groups_reduced);
  EXPECT_EQ(a.stats.task_attempts, b.stats.task_attempts);
  EXPECT_EQ(a.stats.counters.values(), b.stats.counters.values());
}

TEST(EngineDurabilityTest, CrashThenResumeIsExactAcrossThreadsAndShuffle) {
  for (const int threads : {1, 4}) {
    for (const ShuffleMode shuffle :
         {ShuffleMode::kSorted, ShuffleMode::kColumnar}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " shuffle="
                   << ShuffleModeName(shuffle));
      const JobOutput<KeySum> baseline =
          RunSumJob(BaseSpec(threads, shuffle)).ValueOrDie();

      const std::string dir = FreshDir("engine");
      auto store =
          CheckpointStore::Open(dir, "sum-job", /*resume=*/false)
              .ValueOrDie();
      JobSpec crashing = BaseSpec(threads, shuffle);
      crashing.checkpoint = store.get();
      crashing.faults.crash_at_task = 1;
      crashing.faults.crash_phase = TaskPhase::kReduce;
      const auto crashed = RunSumJob(crashing);
      ASSERT_FALSE(crashed.ok());
      EXPECT_EQ(crashed.status().code(), StatusCode::kUnavailable);
      // The crash fired after the commit: its record is durable.
      EXPECT_TRUE(store->HasTask("reduce", 1));

      auto resumed_store =
          CheckpointStore::Open(dir, "sum-job", /*resume=*/true).ValueOrDie();
      const size_t committed = resumed_store->CommittedTasks();
      EXPECT_GE(committed, 5u);  // all 4 map tasks + reduce task 1
      JobSpec resuming = BaseSpec(threads, shuffle);
      resuming.checkpoint = resumed_store.get();
      resuming.resume = true;
      const JobOutput<KeySum> resumed = RunSumJob(resuming).ValueOrDie();
      ExpectSameJob(baseline, resumed);
    }
  }
}

TEST(EngineDurabilityTest, MapPhaseCrashResumesExactly) {
  const JobOutput<KeySum> baseline =
      RunSumJob(BaseSpec(1, ShuffleMode::kColumnar)).ValueOrDie();
  const std::string dir = FreshDir("mapcrash");
  auto store =
      CheckpointStore::Open(dir, "sum-job", /*resume=*/false).ValueOrDie();
  JobSpec crashing = BaseSpec(1, ShuffleMode::kColumnar);
  crashing.checkpoint = store.get();
  crashing.faults.crash_at_task = 2;
  crashing.faults.crash_phase = TaskPhase::kMap;
  ASSERT_EQ(RunSumJob(crashing).status().code(), StatusCode::kUnavailable);

  auto resumed_store =
      CheckpointStore::Open(dir, "sum-job", /*resume=*/true).ValueOrDie();
  JobSpec resuming = BaseSpec(1, ShuffleMode::kColumnar);
  resuming.checkpoint = resumed_store.get();
  resuming.resume = true;
  ExpectSameJob(baseline, RunSumJob(resuming).ValueOrDie());
}

TEST(EngineDurabilityTest, CorruptedCheckpointSelfHealsByRerunning) {
  const JobOutput<KeySum> baseline =
      RunSumJob(BaseSpec(1, ShuffleMode::kColumnar)).ValueOrDie();
  const std::string dir = FreshDir("selfheal");
  {
    auto store =
        CheckpointStore::Open(dir, "sum-job", /*resume=*/false).ValueOrDie();
    JobSpec spec = BaseSpec(1, ShuffleMode::kColumnar);
    spec.checkpoint = store.get();
    ASSERT_TRUE(RunSumJob(spec).ok());
  }
  // Flip the segment's first byte — map task 0's payload starts at offset
  // 0 under the sequential run above. The resumed run must detect the
  // checksum mismatch, discard the record, and re-run that task.
  {
    std::fstream file(dir + "/DATA.log",
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(0);
    byte = static_cast<char>(byte ^ 0x5A);
    file.write(&byte, 1);
  }
  auto store =
      CheckpointStore::Open(dir, "sum-job", /*resume=*/true).ValueOrDie();
  JobSpec resuming = BaseSpec(1, ShuffleMode::kColumnar);
  resuming.checkpoint = store.get();
  resuming.resume = true;
  ExpectSameJob(baseline, RunSumJob(resuming).ValueOrDie());
}

TEST(EngineDurabilityTest, UnknownGroupPathRecordReruns) {
  // Group-path bytes above kSorted (e.g. the values of retired grouping
  // paths) must fail the reduce restore's range check: the record is
  // discarded, the task re-runs, and the job output is unchanged.
  const JobOutput<KeySum> baseline =
      RunSumJob(BaseSpec(1, ShuffleMode::kColumnar)).ValueOrDie();
  const std::string dir = FreshDir("grouppath");
  {
    auto store =
        CheckpointStore::Open(dir, "sum-job", /*resume=*/false).ValueOrDie();
    JobSpec spec = BaseSpec(1, ShuffleMode::kColumnar);
    spec.checkpoint = store.get();
    ASSERT_TRUE(RunSumJob(spec).ok());
  }
  size_t path_offset = 0;
  {
    auto store =
        CheckpointStore::Open(dir, "sum-job", /*resume=*/true).ValueOrDie();
    std::string payload = store->LoadTask("reduce", 1).ValueOrDie();
    // The path byte follows the stats delta and the slot costs.
    PayloadReader reader(payload);
    JobStats stats;
    std::vector<double> slot_costs;
    ASSERT_TRUE(DeserializeJobStatsDelta(&reader, &stats).ok());
    ASSERT_TRUE(reader.F64Vec(&slot_costs).ok());
    path_offset = payload.size() - reader.remaining();
    ASSERT_LE(payload[path_offset], 1);
    payload[path_offset] = 4;
    ASSERT_TRUE(store->CommitTask("reduce", 1, payload).ok());
  }
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.Reset();
  auto store =
      CheckpointStore::Open(dir, "sum-job", /*resume=*/true).ValueOrDie();
  JobSpec resuming = BaseSpec(1, ShuffleMode::kColumnar);
  resuming.checkpoint = store.get();
  resuming.resume = true;
  const JobOutput<KeySum> resumed = RunSumJob(resuming).ValueOrDie();
  EXPECT_EQ(resumed.output, baseline.output);
  EXPECT_EQ(resumed.stats.groups_reduced, baseline.stats.groups_reduced);
  uint64_t load_failures = 0;
  uint64_t tasks_written = 0;
  for (const MetricSnapshot& m : metrics.Snapshot()) {
    if (m.name == "durability.checkpoint.load_failures") {
      load_failures = m.count;
    } else if (m.name == "durability.checkpoint.tasks_written") {
      tasks_written = m.count;
    }
  }
  EXPECT_EQ(load_failures, 1u);
  EXPECT_EQ(tasks_written, 1u);  // only the re-run reduce task
  // The re-run task replaced the bad record.
  EXPECT_LE(store->LoadTask("reduce", 1).ValueOrDie()[path_offset], 1);
}

TEST(EngineDurabilityTest, InconsistentSpillRunDescriptorReruns) {
  // Map records whose spill-run descriptors pass the file-size check only
  // through wrapping arithmetic, or whose byte count does not match their
  // record count, must fail the restore so the task re-runs — not pass it
  // and fail every reduce attempt that reads the run.
  const JobOutput<KeySum> baseline =
      RunSumJob(BaseSpec(1, ShuffleMode::kColumnar)).ValueOrDie();
  const std::string dir = FreshDir("forgedrun");
  {
    // Map tasks 0..2 commit, then the job crashes before any reduce task.
    auto store =
        CheckpointStore::Open(dir, "sum-job", /*resume=*/false).ValueOrDie();
    JobSpec crashing = BaseSpec(1, ShuffleMode::kColumnar);
    crashing.checkpoint = store.get();
    crashing.faults.crash_at_task = 2;
    crashing.faults.crash_phase = TaskPhase::kMap;
    ASSERT_EQ(RunSumJob(crashing).status().code(), StatusCode::kUnavailable);
  }
  const std::string run_file = dir + "/forged.runs";
  std::ofstream(run_file, std::ios::binary) << std::string(64, '\0');
  const auto forge = [&](uint64_t records, uint64_t offset, uint64_t bytes) {
    PayloadWriter payload;
    SerializeJobStatsDelta(JobStats(), &payload);
    payload.F64Vec({});
    payload.U8(1);   // spilled
    payload.U64(1);  // one run
    payload.String(run_file);
    payload.U32(0);  // partition
    payload.U64(records);
    payload.U64(offset);
    payload.U64(bytes);
    payload.U64(0);  // checksum
    payload.U64(0);  // min key
    payload.U64(6);  // max key
    return payload.str();
  };
  constexpr uint64_t kPair = sizeof(std::pair<int, int>);
  {
    auto store =
        CheckpointStore::Open(dir, "sum-job", /*resume=*/true).ValueOrDie();
    // Records and bytes agree, but offset + bytes wraps to 8, under the
    // 64-byte file size.
    const uint64_t records = ~uint64_t{0} / kPair;
    ASSERT_TRUE(store
                    ->CommitTask("map", 0,
                                 forge(records, 16, records * kPair))
                    .ok());
    // 2 records in the bytes of one; the file covers the claimed bytes.
    ASSERT_TRUE(store->CommitTask("map", 1, forge(2, 0, kPair)).ok());
  }
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.Reset();
  auto store =
      CheckpointStore::Open(dir, "sum-job", /*resume=*/true).ValueOrDie();
  JobSpec resuming = BaseSpec(1, ShuffleMode::kColumnar);
  resuming.checkpoint = store.get();
  resuming.resume = true;
  const auto resumed = RunSumJob(resuming);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameJob(baseline, resumed.value());
  uint64_t load_failures = 0;
  for (const MetricSnapshot& m : metrics.Snapshot()) {
    if (m.name == "durability.checkpoint.load_failures") {
      load_failures = m.count;
    }
  }
  EXPECT_EQ(load_failures, 2u);
}

TEST(EngineDurabilityTest, CheckpointRequiresTriviallyCopyableTypes) {
  class StringReducer : public Reducer<int, int, std::string> {
   public:
    void Reduce(const int& key, std::vector<int>&, std::vector<std::string>&,
                Counters&) override {
      (void)key;
    }
  };
  const std::string dir = FreshDir("nonpod");
  auto store =
      CheckpointStore::Open(dir, "x", /*resume=*/false).ValueOrDie();
  RangeMapper mapper(10);
  StringReducer reducer;
  JobSpec spec = BaseSpec(1, ShuffleMode::kSorted);
  spec.checkpoint = store.get();
  const auto job = RunMapReduce<int, int, std::string>(
      1, mapper, reducer, [](const int&) { return 0; }, spec);
  EXPECT_EQ(job.status().code(), StatusCode::kUnimplemented);
}

TEST(EngineDurabilityTest, CancellationSkipsRetriesAndFillsPartialStats) {
  CancellationToken token;
  const RunControl control = RunControl::WithDeadline(0.0, token);
  class CancellingReducer : public Reducer<int, int, KeySum> {
   public:
    explicit CancellingReducer(CancellationToken token)
        : token_(std::move(token)) {}
    void Reduce(const int&, std::vector<int>&, std::vector<KeySum>&,
                Counters&) override {
      token_.Cancel();
    }

   private:
    CancellationToken token_;
  };
  RangeMapper mapper(100);
  CancellingReducer reducer(token);
  JobStats partial;
  JobSpec spec = BaseSpec(1, ShuffleMode::kColumnar);
  spec.max_task_attempts = 4;
  spec.control = &control;
  spec.partial_stats = &partial;
  const auto job = RunMapReduce<int, int, KeySum>(
      4, mapper, reducer, [](const int& key) { return key % 3; }, spec);
  ASSERT_FALSE(job.ok());
  EXPECT_EQ(job.status().code(), StatusCode::kCancelled);
  // The maps all ran before the cancel fired; their work is reported.
  EXPECT_EQ(partial.records_mapped, 400u);
  EXPECT_GE(partial.task_attempts, 5u);  // 4 maps + the cancelling reduce
  // Cancellation is terminal: no retry burned the attempt budget.
  EXPECT_EQ(partial.task_retries, 0u);
}

TEST(EngineDurabilityTest, TerminalStatusBypassesRetryBudget) {
  class ExhaustedReducer : public Reducer<int, int, KeySum> {
   public:
    void Reduce(const int&, std::vector<int>&, std::vector<KeySum>&,
                Counters&) override {}
    Status TryReduceTask(const GroupedView<int, int>& groups,
                         std::vector<KeySum>&, Counters&) override {
      (void)groups;
      return Status::ResourceExhausted("synthetic budget failure");
    }
  };
  RangeMapper mapper(100);
  ExhaustedReducer reducer;
  JobStats partial;
  JobSpec spec = BaseSpec(1, ShuffleMode::kColumnar);
  spec.max_task_attempts = 6;
  spec.partial_stats = &partial;
  const auto job = RunMapReduce<int, int, KeySum>(
      4, mapper, reducer, [](const int& key) { return key % 3; }, spec);
  ASSERT_FALSE(job.ok());
  EXPECT_EQ(job.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(partial.task_retries, 0u);
}

// ---------------------------------------------------------------------------
// Run control and memory budget primitives.

TEST(RunControlTest, InactiveByDefaultAndChecksPass) {
  const RunControl control;
  EXPECT_FALSE(control.active());
  EXPECT_TRUE(control.Check().ok());
}

TEST(RunControlTest, CancellationWinsOverDeadline) {
  CancellationToken token;
  // An already-expired deadline plus a cancelled token: kCancelled wins.
  const RunControl control = RunControl::WithDeadline(1e-12, token);
  token.Cancel();
  EXPECT_EQ(control.Check().code(), StatusCode::kCancelled);
}

TEST(RunControlTest, ExpiredDeadlineFires) {
  const RunControl control =
      RunControl::WithDeadline(1e-12, CancellationToken());
  EXPECT_EQ(control.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(MemoryBudgetTest, ChargeReleasePeakAndFitsAlone) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.FitsAlone(100));
  EXPECT_FALSE(budget.FitsAlone(101));
  EXPECT_TRUE(budget.TryCharge(60));
  EXPECT_TRUE(budget.TryCharge(40));
  EXPECT_FALSE(budget.TryCharge(1));  // full
  EXPECT_EQ(budget.used_bytes(), 100u);
  budget.Release(40);
  EXPECT_EQ(budget.used_bytes(), 60u);
  EXPECT_EQ(budget.peak_bytes(), 100u);
  // FitsAlone ignores concurrent usage — it is the deterministic check.
  EXPECT_TRUE(budget.FitsAlone(100));
}

TEST(MemoryBudgetTest, ZeroLimitIsUnlimitedButAccounted) {
  MemoryBudget budget(0);
  EXPECT_TRUE(budget.FitsAlone(1ull << 60));
  EXPECT_TRUE(budget.TryCharge(1ull << 40));
  EXPECT_EQ(budget.peak_bytes(), 1ull << 40);
}

TEST(MemoryBudgetTest, MemoryChargeIsRaii) {
  MemoryBudget budget(100);
  {
    MemoryCharge charge;
    ASSERT_TRUE(charge.Acquire(&budget, 80, "test").ok());
    EXPECT_EQ(budget.used_bytes(), 80u);
    MemoryCharge denied;
    const Status status = denied.Acquire(&budget, 30, "overflow");
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
    EXPECT_NE(status.message().find("overflow"), std::string::npos);
  }
  EXPECT_EQ(budget.used_bytes(), 0u);  // released on scope exit
  MemoryCharge no_budget;
  EXPECT_TRUE(no_budget.Acquire(nullptr, 1ull << 60, "unbudgeted").ok());
}

TEST(TaskArenaBudgetTest, ReservationBeyondBudgetIsResourceExhausted) {
  const Dataset data = GenerateUniform(100, Rect::Cube(2, 0.0, 1.0), 3);
  MemoryBudget tiny(1024);
  TaskArena arena(data, &tiny);
  const Status status = arena.TryReserve(/*num_cells=*/4,
                                         /*num_points=*/100000);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  // The failed reservation must not leave a dangling charge.
  EXPECT_EQ(tiny.used_bytes(), 0u);
}

TEST(ShuffleBudgetTest, ColumnarDegradesToSortedWithIdenticalGroups) {
  std::vector<std::pair<uint32_t, int>> plain, budgeted;
  for (int i = 0; i < 500; ++i) {
    plain.emplace_back(static_cast<uint32_t>(i % 37), i);
  }
  budgeted = plain;

  internal::GroupScratch<uint32_t, int> plain_scratch, budget_scratch;
  internal::GroupPath plain_path, budget_path;
  internal::FallbackReason plain_reason, budget_reason;
  const GroupedView<uint32_t, int> columnar =
      internal::GroupBucket(plain, ShuffleMode::kColumnar, &plain_scratch,
                            &plain_path, nullptr, &plain_reason);
  MemoryBudget tiny(16);  // denies any real scratch
  const GroupedView<uint32_t, int> degraded =
      internal::GroupBucket(budgeted, ShuffleMode::kColumnar, &budget_scratch,
                            &budget_path, &tiny, &budget_reason);
  EXPECT_EQ(plain_path, internal::GroupPath::kColumnar);
  EXPECT_EQ(plain_reason, internal::FallbackReason::kNone);
  EXPECT_EQ(budget_path, internal::GroupPath::kSorted);
  EXPECT_EQ(budget_reason, internal::FallbackReason::kBudget);
  ASSERT_EQ(columnar.num_groups(), degraded.num_groups());
  ASSERT_EQ(columnar.num_records(), degraded.num_records());
  for (size_t g = 0; g < columnar.num_groups(); ++g) {
    EXPECT_EQ(columnar.key(g), degraded.key(g));
    ASSERT_EQ(columnar.size(g), degraded.size(g));
    for (size_t i = 0; i < columnar.size(g); ++i) {
      EXPECT_EQ(columnar.value(g, i), degraded.value(g, i));
    }
  }
}

// ---------------------------------------------------------------------------
// Pipeline-level durability.

DodConfig SmallDmtConfig() {
  DodConfig config = DodConfig::Dmt(DetectionParams{5.0, 4});
  config.sampler.rate = 0.3;
  config.num_threads = 4;
  return config;
}

void ExpectSameProfiles(const std::vector<PartitionProfile>& a,
                        const std::vector<PartitionProfile>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cell, b[i].cell);
    EXPECT_EQ(a[i].reduce_task, b[i].reduce_task);
    EXPECT_EQ(a[i].algorithm, b[i].algorithm);
    EXPECT_EQ(a[i].core_points, b[i].core_points);
    EXPECT_EQ(a[i].support_points, b[i].support_points);
    EXPECT_EQ(a[i].area, b[i].area);
    EXPECT_EQ(a[i].density, b[i].density);
    EXPECT_EQ(a[i].predicted_cost, b[i].predicted_cost);
    EXPECT_EQ(a[i].measured_distance_evals, b[i].measured_distance_evals);
    // measured_seconds is wall clock: not comparable.
  }
}

TEST(PipelineDurabilityTest, CrashResumeMatchesUninterruptedRun) {
  const Dataset data =
      GenerateUniform(4000, DomainForDensity(4000, 0.04), 17);
  const DodResult baseline = DodPipeline(SmallDmtConfig()).RunOrDie(data);

  const std::string dir = FreshDir("pipeline");
  DodConfig crashing = SmallDmtConfig();
  crashing.checkpoint_dir = dir;
  crashing.faults.crash_at_task = 1;
  crashing.faults.crash_phase = TaskPhase::kReduce;
  const auto crashed = DodPipeline(crashing).Run(data);
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), StatusCode::kUnavailable);

  DodConfig resuming = SmallDmtConfig();
  resuming.checkpoint_dir = dir;
  resuming.resume = true;
  // Resume on a different thread count: still byte-identical.
  resuming.num_threads = 1;
  const DodResult resumed = DodPipeline(resuming).RunOrDie(data);
  EXPECT_EQ(baseline.outliers, resumed.outliers);
  EXPECT_EQ(baseline.detect_stats.records_mapped,
            resumed.detect_stats.records_mapped);
  EXPECT_EQ(baseline.detect_stats.groups_reduced,
            resumed.detect_stats.groups_reduced);
  EXPECT_EQ(baseline.detect_stats.counters.values(),
            resumed.detect_stats.counters.values());
  ExpectSameProfiles(baseline.detect_stats.partition_profiles,
                     resumed.detect_stats.partition_profiles);
}

TEST(PipelineDurabilityTest, ResumeRefusesDifferentConfiguration) {
  const Dataset data =
      GenerateUniform(2000, DomainForDensity(2000, 0.04), 18);
  const std::string dir = FreshDir("refuse");
  DodConfig first = SmallDmtConfig();
  first.checkpoint_dir = dir;
  ASSERT_TRUE(DodPipeline(first).Run(data).ok());

  DodConfig other = SmallDmtConfig();
  other.checkpoint_dir = dir;
  other.resume = true;
  other.seed = first.seed + 1;  // different fingerprint
  const auto refused = DodPipeline(other).Run(data);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PipelineDurabilityTest, DomainBaselineCrashResumeAcrossBothJobs) {
  const Dataset data =
      GenerateUniform(3000, DomainForDensity(3000, 0.04), 19);
  DodConfig base = DodConfig::Baseline(DetectionParams{5.0, 4},
                                       StrategyKind::kDomain,
                                       AlgorithmKind::kCellBased);
  base.num_threads = 4;
  const DodResult baseline = DodPipeline(base).RunOrDie(data);

  // The crash task index exists in both jobs; the run crashes in the
  // detection job first, and after one resume crashes again in the
  // verification job, so convergence takes two resumes.
  const std::string dir = FreshDir("domain");
  DodConfig crashing = base;
  crashing.checkpoint_dir = dir;
  crashing.faults.crash_at_task = 0;
  crashing.faults.crash_phase = TaskPhase::kReduce;
  ASSERT_EQ(DodPipeline(crashing).Run(data).status().code(),
            StatusCode::kUnavailable);
  DodConfig once = crashing;
  once.resume = true;
  ASSERT_EQ(DodPipeline(once).Run(data).status().code(),
            StatusCode::kUnavailable);
  DodConfig final_run = base;
  final_run.checkpoint_dir = dir;
  final_run.resume = true;
  const DodResult resumed = DodPipeline(final_run).RunOrDie(data);
  EXPECT_EQ(baseline.outliers, resumed.outliers);
  EXPECT_EQ(baseline.verify_stats.groups_reduced,
            resumed.verify_stats.groups_reduced);
}

TEST(PipelineDurabilityTest, DeadlineAndCancellationAreStructured) {
  const Dataset data =
      GenerateUniform(2000, DomainForDensity(2000, 0.04), 20);
  DodConfig deadline_config = SmallDmtConfig();
  deadline_config.deadline_seconds = 1e-9;
  RunDiagnostics diagnostics;
  const auto timed_out =
      DodPipeline(deadline_config).Run(data, &diagnostics);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);

  DodConfig cancel_config = SmallDmtConfig();
  cancel_config.cancel_token.Cancel();
  const auto cancelled = DodPipeline(cancel_config).Run(data);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace dod
