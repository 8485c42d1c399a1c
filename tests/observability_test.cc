// Copyright 2026 The DOD Authors.
//
// Tests of the observability layer: the metrics registry's merge algebra,
// the determinism conventions (identical seeded runs produce identical
// non-timing metrics and identical trace content), span-per-attempt
// accounting under fault injection, the Chrome trace schema, and the
// wall-clock fields of JobStats.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "data/generators.h"
#include "mapreduce/job_stats.h"
#include "observability/json.h"
#include "observability/metrics.h"
#include "observability/profile.h"
#include "observability/trace.h"

namespace dod {
namespace {

std::map<std::string, MetricSnapshot> SnapshotByName() {
  std::map<std::string, MetricSnapshot> by_name;
  for (MetricSnapshot& snapshot : MetricsRegistry::Global().Snapshot()) {
    by_name[snapshot.name] = std::move(snapshot);
  }
  return by_name;
}

// --- Registry unit tests ------------------------------------------------

TEST(MetricsRegistryTest, ConcurrentIncrementsMergeExactly) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.Reset();
  const uint32_t counter =
      metrics.Id("test.concurrent_counter", MetricKind::kCounter);
  const uint32_t histogram =
      metrics.Id("test.concurrent_hist", MetricKind::kHistogram);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&metrics, counter, histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        metrics.Increment(counter);
        metrics.Observe(histogram, 1.0 + t);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  // Half the shards come from exited threads (retired aggregate), half
  // would come from live ones had the threads survived; either way the
  // fold must be an exact sum.
  const auto by_name = SnapshotByName();
  EXPECT_EQ(by_name.at("test.concurrent_counter").count,
            static_cast<uint64_t>(kThreads) * kPerThread);
  const MetricSnapshot& hist = by_name.at("test.concurrent_hist");
  EXPECT_EQ(hist.count, static_cast<uint64_t>(kThreads) * kPerThread);
  double expected_sum = 0.0;
  for (int t = 0; t < kThreads; ++t) expected_sum += (1.0 + t) * kPerThread;
  EXPECT_DOUBLE_EQ(hist.value, expected_sum);
}

TEST(MetricsRegistryTest, HistogramBucketingIsMonotoneAndBounded) {
  EXPECT_EQ(HistogramBucket(0.0), 0);
  EXPECT_EQ(HistogramBucket(-1.0), 0);
  EXPECT_EQ(HistogramBucket(std::nan("")), 0);
  EXPECT_EQ(HistogramBucketLowerBound(0), 0.0);

  int previous = 0;
  for (double value : {1e-12, 1e-9, 1e-6, 0.001, 0.5, 1.0, 3.0, 1e3, 1e6,
                       1e9, 1e15}) {
    const int bucket = HistogramBucket(value);
    ASSERT_GE(bucket, 0);
    ASSERT_LT(bucket, kHistogramBuckets);
    EXPECT_GE(bucket, previous) << "bucketing not monotone at " << value;
    previous = bucket;
    // Within the covered range the bucket's bounds bracket the value;
    // values below ~2e-10 or above ~2e9 clamp to the edge buckets.
    if (value >= HistogramBucketLowerBound(1) && bucket > 0 &&
        bucket < kHistogramBuckets - 1) {
      EXPECT_LE(HistogramBucketLowerBound(bucket), value);
      EXPECT_GT(HistogramBucketLowerBound(bucket + 1), value);
    }
  }
}

TEST(MetricsRegistryTest, GaugeKeepsMaxAndCountsSets) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.Reset();
  metrics.SetGauge("test.gauge", 3.0);
  metrics.SetGauge("test.gauge", 11.0);
  metrics.SetGauge("test.gauge", 7.0);
  const MetricSnapshot gauge = SnapshotByName().at("test.gauge");
  EXPECT_EQ(gauge.kind, MetricKind::kGauge);
  EXPECT_EQ(gauge.count, 3u);
  EXPECT_EQ(gauge.value, 11.0);
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const uint32_t id = metrics.Id("test.reset_counter", MetricKind::kCounter);
  metrics.Increment(id, 5);
  metrics.Reset();
  EXPECT_EQ(SnapshotByName().at("test.reset_counter").count, 0u);
  // The handle must survive the reset.
  metrics.Increment(id, 2);
  EXPECT_EQ(SnapshotByName().at("test.reset_counter").count, 2u);
}

TEST(MetricsRegistryTest, TimingConventionMatchesSuffix) {
  EXPECT_TRUE(IsTimingMetric("pipeline.wall_seconds"));
  EXPECT_TRUE(IsTimingMetric("mr.map_slot_seconds"));
  EXPECT_FALSE(IsTimingMetric("mr.task_attempts"));
  EXPECT_FALSE(IsTimingMetric("seconds_of_fame"));
}

TEST(PartitionProfilerTest, RecordOverwritesPerCellAndSortsById) {
  PartitionProfiler profiler;
  PartitionProfile profile;
  profile.cell = 7;
  profile.measured_distance_evals = 100;
  profiler.Record(profile);
  profile.cell = 2;
  profiler.Record(profile);
  // A retried reduce attempt re-records the same cell; the last write
  // wins instead of duplicating the row.
  profile.cell = 7;
  profile.measured_distance_evals = 250;
  profiler.Record(profile);

  const std::vector<PartitionProfile> sorted = profiler.Sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].cell, 2u);
  EXPECT_EQ(sorted[1].cell, 7u);
  EXPECT_EQ(sorted[1].measured_distance_evals, 250u);
}

TEST(JobStatsTest, MergeConcatenatesPartitionProfiles) {
  JobStats a, b;
  PartitionProfile profile;
  profile.cell = 1;
  a.partition_profiles.push_back(profile);
  profile.cell = 2;
  b.partition_profiles.push_back(profile);
  a.MergeFrom(b);
  ASSERT_EQ(a.partition_profiles.size(), 2u);
  EXPECT_EQ(a.partition_profiles[1].cell, 2u);
}

// --- Pipeline-level observability ---------------------------------------

DodConfig FaultedDmtConfig(int threads) {
  DodConfig config = DodConfig::Dmt(DetectionParams{5.0, 4});
  config.sampler.rate = 0.3;
  config.num_threads = threads;
  config.faults.enabled = true;
  config.faults.seed = 99;
  config.faults.task_failure_prob = 0.25;
  config.retry.max_task_attempts = 8;
  return config;
}

TEST(ObservabilityDeterminism, SameSeedRunsProduceIdenticalMetrics) {
  const Dataset data =
      GenerateUniform(3000, DomainForDensity(3000, 0.04), 71);
  const DodConfig config = FaultedDmtConfig(4);

  const auto run_once = [&](std::vector<PointId>* outliers) {
    MetricsRegistry::Global().Reset();
    *outliers = DodPipeline(config).RunOrDie(data).outliers;
    return SnapshotByName();
  };

  std::vector<PointId> outliers_a, outliers_b;
  const auto first = run_once(&outliers_a);
  const auto second = run_once(&outliers_b);

  EXPECT_EQ(outliers_a, outliers_b);
  ASSERT_EQ(first.size(), second.size());
  for (const auto& [name, snapshot] : first) {
    ASSERT_TRUE(second.count(name)) << name;
    const MetricSnapshot& other = second.at(name);
    if (IsTimingMetric(name) || name == "durability.memory.peak_bytes") {
      // Timing metrics: the observation *count* is deterministic, the
      // measured values are not. The memory peak gauge likewise tracks
      // real concurrent usage, which depends on task interleaving.
      EXPECT_EQ(snapshot.count, other.count) << name;
      continue;
    }
    EXPECT_EQ(snapshot.count, other.count) << name;
    EXPECT_EQ(snapshot.value, other.value) << name << " not bit-identical";
    EXPECT_EQ(snapshot.buckets, other.buckets) << name;
  }
}

#if !defined(DOD_TRACING_DISABLED)

std::vector<trace::TraceEvent> TraceRun(const DodConfig& config,
                                        const Dataset& data,
                                        DodResult* result) {
  trace::Start();
  *result = DodPipeline(config).RunOrDie(data);
  trace::Stop();
  return trace::SnapshotEvents();
}

TEST(TraceTest, OneSpanPerTaskAttemptIncludingRetries) {
  const Dataset data =
      GenerateUniform(3000, DomainForDensity(3000, 0.04), 73);
  MetricsRegistry::Global().Reset();
  DodResult result;
  const std::vector<trace::TraceEvent> events =
      TraceRun(FaultedDmtConfig(4), data, &result);
  const JobStats& stats = result.detect_stats;
  // JobStats does not count logical tasks directly; the registry does.
  const auto by_name = SnapshotByName();
  const uint64_t logical_tasks = by_name.at("mr.map_tasks").count +
                                 by_name.at("mr.reduce_tasks").count;

  uint64_t task_spans = 0, failed_spans = 0, speculative_spans = 0;
  for (const trace::TraceEvent& event : events) {
    if (std::strcmp(event.category, "task") != 0) continue;
    ++task_spans;
    if (event.args.find("\"status\":\"failed\"") != std::string::npos) {
      ++failed_spans;
    }
    if (event.args.find("\"speculative\":1") != std::string::npos) {
      ++speculative_spans;
    }
  }
  // The fault schedule must actually have fired for this test to bite.
  ASSERT_GT(stats.task_failures, 0u);
  EXPECT_EQ(task_spans, stats.task_attempts);
  EXPECT_EQ(failed_spans, stats.task_failures);
  EXPECT_EQ(speculative_spans, stats.speculative_attempts);
  // Attempt identity: every task runs once, plus one attempt per retry,
  // plus the speculative duplicates.
  EXPECT_EQ(stats.task_attempts,
            logical_tasks + stats.task_retries + stats.speculative_attempts);
}

TEST(TraceTest, SameSeedRunsProduceIdenticalSpanContent) {
  const Dataset data =
      GenerateUniform(2000, DomainForDensity(2000, 0.04), 79);
  const DodConfig config = FaultedDmtConfig(4);

  const auto content = [&] {
    DodResult result;
    std::vector<std::string> rendered;
    for (const trace::TraceEvent& event : TraceRun(config, data, &result)) {
      rendered.push_back(std::string(event.category) + "/" + event.name +
                         "{" + event.args + "}");
    }
    std::sort(rendered.begin(), rendered.end());
    return rendered;
  };
  EXPECT_EQ(content(), content());
}

TEST(TraceTest, ChromeJsonSchemaValidates) {
  const Dataset data =
      GenerateUniform(1500, DomainForDensity(1500, 0.04), 83);
  DodResult result;
  const std::vector<trace::TraceEvent> events =
      TraceRun(FaultedDmtConfig(2), data, &result);
  ASSERT_FALSE(events.empty());

  const std::string path = ::testing::TempDir() + "dod_trace_test.json";
  // SnapshotEvents drained the collector, so re-run to have content to
  // write; cheaper: write from a fresh short run.
  trace::Start();
  { trace::Span span("test", "schema"); span.Arg("answer", 42); }
  trace::Stop();
  ASSERT_TRUE(trace::WriteChromeJson(path).ok());

  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const Result<JsonValue> parsed = JsonValue::Parse(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = parsed.value();
  ASSERT_TRUE(doc.Get("traceEvents").is_array());
  const auto& trace_events = doc.Get("traceEvents").array();
  ASSERT_FALSE(trace_events.empty());
  for (const JsonValue& event : trace_events) {
    EXPECT_TRUE(event.Get("name").is_string());
    EXPECT_TRUE(event.Get("cat").is_string());
    EXPECT_EQ(event.Get("ph").string_value(), "X");
    EXPECT_TRUE(event.Get("ts").is_number());
    EXPECT_TRUE(event.Get("dur").is_number());
    EXPECT_TRUE(event.Get("pid").is_number());
    EXPECT_TRUE(event.Get("tid").is_number());
  }
  const JsonValue& first = trace_events.front();
  EXPECT_EQ(first.Get("cat").string_value(), "test");
  EXPECT_TRUE(first.Get("args").Get("answer").is_number());
}

#endif  // !DOD_TRACING_DISABLED

TEST(JobStatsWallClock, PhaseWallsArePositiveAndDominateTaskTimes) {
  // No faults: charged slot costs equal measured task durations, and every
  // task's measurement window nests inside its phase's wall window.
  const Dataset data =
      GenerateUniform(6000, DomainForDensity(6000, 0.04), 89);
  DodConfig config = DodConfig::Dmt(DetectionParams{5.0, 4});
  config.sampler.rate = 0.3;
  config.num_threads = 4;
  const DodResult result = DodPipeline(config).RunOrDie(data);
  const JobStats& stats = result.detect_stats;

  EXPECT_GT(stats.map_wall_seconds, 0.0);
  EXPECT_GT(stats.reduce_wall_seconds, 0.0);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GE(stats.wall_seconds, stats.map_wall_seconds);
  EXPECT_GE(stats.wall_seconds, stats.reduce_wall_seconds);

  ASSERT_FALSE(stats.map_task_seconds.empty());
  ASSERT_FALSE(stats.reduce_task_seconds.empty());
  for (double seconds : stats.map_task_seconds) {
    EXPECT_GE(stats.map_wall_seconds, seconds);
  }
  for (double seconds : stats.reduce_task_seconds) {
    EXPECT_GE(stats.reduce_wall_seconds, seconds);
  }
}

TEST(ObservabilityReport, JsonContainsMetricsAndProfiles) {
  const Dataset data =
      GenerateUniform(1500, DomainForDensity(1500, 0.04), 97);
  MetricsRegistry::Global().Reset();
  DodConfig config = DodConfig::Dmt(DetectionParams{5.0, 4});
  config.sampler.rate = 0.3;
  const DodResult result = DodPipeline(config).RunOrDie(data);
  ASSERT_FALSE(result.detect_stats.partition_profiles.empty());

  const std::string json =
      ObservabilityReportJson(MetricsRegistry::Global().Snapshot(),
                              result.detect_stats.partition_profiles);
  const Result<JsonValue> parsed = JsonValue::Parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = parsed.value();
  ASSERT_TRUE(doc.Get("metrics").Get("counters").is_object());
  EXPECT_TRUE(doc.Get("metrics")
                  .Get("counters")
                  .Get("pipeline.runs")
                  .is_number());
  const auto& profiles = doc.Get("partition_profiles").array();
  ASSERT_EQ(profiles.size(), result.detect_stats.partition_profiles.size());
  for (const JsonValue& profile : profiles) {
    EXPECT_TRUE(profile.Get("predicted_cost").is_number());
    EXPECT_TRUE(profile.Get("measured_distance_evals").is_number());
    EXPECT_TRUE(profile.Get("algorithm").is_string());
  }
}

}  // namespace
}  // namespace dod
