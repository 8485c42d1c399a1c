// Copyright 2026 The DOD Authors.
//
// Engine details beyond the core grouping semantics: I/O charging,
// non-POD key/value types, counters, stage-time arithmetic, and logging.

#include <gtest/gtest.h>

#include <string>

#include "common/logging.h"
#include "mapreduce/job.h"

namespace dod {
namespace {

JobSpec LocalSpec(int reducers, int slots = 4) {
  JobSpec spec;
  spec.num_reduce_tasks = reducers;
  spec.cluster = ClusterSpec::Local(slots);
  return spec;
}

class NullMapper : public Mapper<int, int> {
 public:
  void Map(size_t, Emitter<int, int>&) override {}
};

class NullReducer : public Reducer<int, int, int> {
 public:
  void Reduce(const int&, std::vector<int>&, std::vector<int>&,
              Counters&) override {}
};

TEST(EngineIoChargeTest, SplitBytesRaiseMapStageTime) {
  NullMapper mapper;
  NullReducer reducer;
  JobSpec cheap = LocalSpec(1);
  auto no_io = RunMapReduce<int, int, int>(
      4, mapper, reducer, [](const int&) { return 0; }, cheap)
                   .ValueOrDie();

  JobSpec charged = LocalSpec(1);
  charged.cluster.disk_read_mbps_per_slot = 100.0;
  // 4 splits × 50 MB at 100 MB/s on 4 slots → ≥ 0.5 s simulated map time.
  charged.split_input_bytes = {50'000'000, 50'000'000, 50'000'000,
                               50'000'000};
  auto with_io = RunMapReduce<int, int, int>(
      4, mapper, reducer, [](const int&) { return 0; }, charged)
                     .ValueOrDie();

  EXPECT_LT(no_io.stats.stage_times.map_seconds, 0.01);
  EXPECT_NEAR(with_io.stats.stage_times.map_seconds, 0.5, 0.05);
  // Wall time is unaffected — the charge is simulated, not slept.
  EXPECT_LT(with_io.stats.wall_seconds, 0.1);
}

TEST(EngineIoChargeTest, MissingEntriesAreUncharged) {
  NullMapper mapper;
  NullReducer reducer;
  JobSpec spec = LocalSpec(1, 1);
  spec.split_input_bytes = {10'000'000};  // only split 0 charged
  auto job = RunMapReduce<int, int, int>(
      3, mapper, reducer, [](const int&) { return 0; }, spec)
                 .ValueOrDie();
  ASSERT_EQ(job.stats.map_task_seconds.size(), 3u);
  EXPECT_GT(job.stats.map_task_seconds[0], 0.09);
  EXPECT_LT(job.stats.map_task_seconds[1], 0.01);
}

// A job with string keys and move-only-ish payloads.
class WordMapper : public Mapper<std::string, int> {
 public:
  void Map(size_t split, Emitter<std::string, int>& out) override {
    const char* words[] = {"outlier", "inlier", "outlier", "support"};
    out.Emit(words[split % 4], 1);
    out.Emit("outlier", 1);
  }
};

class WordReducer : public Reducer<std::string, int, std::string> {
 public:
  void Reduce(const std::string& key, std::vector<int>& values,
              std::vector<std::string>& out, Counters&) override {
    out.push_back(key + ":" + std::to_string(values.size()));
  }
};

TEST(EngineTypesTest, StringKeysSortAndGroup) {
  WordMapper mapper;
  WordReducer reducer;
  auto job = RunMapReduce<std::string, int, std::string>(
      4, mapper, reducer, [](const std::string&) { return 0; },
      LocalSpec(1))
                 .ValueOrDie();
  // Keys arrive sorted: inlier, outlier, support.
  ASSERT_EQ(job.output.size(), 3u);
  EXPECT_EQ(job.output[0], "inlier:1");
  EXPECT_EQ(job.output[1], "outlier:6");
  EXPECT_EQ(job.output[2], "support:1");
}

TEST(EngineTypesTest, PerRecordSizeCallbackChargesActualPayload) {
  // A constant wire size would miscount string keys of varying length; the
  // per-record callback charges the actual payload.
  WordMapper mapper;
  WordReducer reducer;
  const auto record_size = [](const std::string& key, const int&) {
    return key.size() + sizeof(int);
  };
  auto job = RunMapReduce<std::string, int, std::string>(
      4, mapper, reducer, [](const std::string&) { return 0; },
      LocalSpec(1), record_size)
                 .ValueOrDie();
  // 8 records: 6×"outlier" (7+4) + 1×"inlier" (6+4) + 1×"support" (7+4).
  EXPECT_EQ(job.stats.records_shuffled, 8u);
  EXPECT_EQ(job.stats.bytes_shuffled, 6u * 11 + 10 + 11);
}

TEST(CountersTest, MergeAndDefault) {
  Counters a, b;
  a.Increment("x", 3);
  b.Increment("x", 4);
  b.Increment("y");
  a.MergeFrom(b);
  EXPECT_EQ(a.Get("x"), 7u);
  EXPECT_EQ(a.Get("y"), 1u);
  EXPECT_EQ(a.Get("missing"), 0u);
  EXPECT_EQ(a.values().size(), 2u);
}

TEST(StageTimesTest, Arithmetic) {
  StageTimes a{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(a.total(), 6.0);
  StageTimes b{0.5, 0.5, 0.5};
  a += b;
  EXPECT_DOUBLE_EQ(a.map_seconds, 1.5);
  EXPECT_DOUBLE_EQ(a.total(), 7.5);
}

TEST(JobStatsTest, ToStringMentionsStagesAndCounts) {
  JobStats stats;
  stats.stage_times = {0.1, 0.2, 0.3};
  stats.records_mapped = 42;
  stats.records_shuffled = 42;
  stats.groups_reduced = 7;
  const std::string text = stats.ToString();
  EXPECT_NE(text.find("map=0.1"), std::string::npos);
  EXPECT_NE(text.find("records=42"), std::string::npos);
  EXPECT_NE(text.find("groups=7"), std::string::npos);
}

TEST(LoggingTest, LevelRoundTrip) {
  const LogLevel previous = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Suppressed message must not crash.
  DOD_LOG(Debug) << "below the threshold " << 42;
  DOD_LOG(Error) << "visible";
  SetLogLevel(previous);
}

}  // namespace
}  // namespace dod
