// Copyright 2026 The DOD Authors.

#include "mapreduce/job_stats.h"

#include <algorithm>
#include <cstdio>

namespace dod {

void JobStats::MergeFrom(const JobStats& other) {
  map_task_seconds.insert(map_task_seconds.end(),
                          other.map_task_seconds.begin(),
                          other.map_task_seconds.end());
  reduce_task_seconds.insert(reduce_task_seconds.end(),
                             other.reduce_task_seconds.begin(),
                             other.reduce_task_seconds.end());
  records_mapped += other.records_mapped;
  records_shuffled += other.records_shuffled;
  bytes_shuffled += other.bytes_shuffled;
  groups_reduced += other.groups_reduced;
  stage_times += other.stage_times;
  task_attempts += other.task_attempts;
  task_failures += other.task_failures;
  task_retries += other.task_retries;
  shuffle_records_dropped += other.shuffle_records_dropped;
  shuffle_records_corrupted += other.shuffle_records_corrupted;
  wall_seconds = std::max(wall_seconds, other.wall_seconds);
  map_wall_seconds = std::max(map_wall_seconds, other.map_wall_seconds);
  reduce_wall_seconds =
      std::max(reduce_wall_seconds, other.reduce_wall_seconds);
  threads_used = std::max(threads_used, other.threads_used);
  counters.MergeFrom(other.counters);
  partition_profiles.insert(partition_profiles.end(),
                            other.partition_profiles.begin(),
                            other.partition_profiles.end());
}

std::string JobStats::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "map=%.4fs shuffle=%.4fs reduce=%.4fs total=%.4fs "
                "(records=%llu shuffled=%llu groups=%llu) "
                "wall=%.4fs threads=%d",
                stage_times.map_seconds, stage_times.shuffle_seconds,
                stage_times.reduce_seconds, stage_times.total(),
                static_cast<unsigned long long>(records_mapped),
                static_cast<unsigned long long>(records_shuffled),
                static_cast<unsigned long long>(groups_reduced),
                wall_seconds, threads_used);
  std::string out = buf;
  if (task_failures > 0) {
    std::snprintf(buf, sizeof(buf),
                  " [attempts=%llu failures=%llu retries=%llu]",
                  static_cast<unsigned long long>(task_attempts),
                  static_cast<unsigned long long>(task_failures),
                  static_cast<unsigned long long>(task_retries));
    out += buf;
  }
  return out;
}

void SerializeJobStatsDelta(const JobStats& stats, PayloadWriter* out) {
  out->U64(stats.records_mapped);
  out->U64(stats.records_shuffled);
  out->U64(stats.bytes_shuffled);
  out->U64(stats.groups_reduced);
  out->U64(stats.task_attempts);
  out->U64(stats.task_failures);
  out->U64(stats.task_retries);
  out->U64(stats.shuffle_records_dropped);
  out->U64(stats.shuffle_records_corrupted);
  const auto& counters = stats.counters.values();
  out->U64(counters.size());
  for (const auto& [name, value] : counters) {
    out->String(name);
    out->U64(value);
  }
}

Status DeserializeJobStatsDelta(PayloadReader* in, JobStats* stats) {
  *stats = JobStats();
  DOD_RETURN_IF_ERROR(in->U64(&stats->records_mapped));
  DOD_RETURN_IF_ERROR(in->U64(&stats->records_shuffled));
  DOD_RETURN_IF_ERROR(in->U64(&stats->bytes_shuffled));
  DOD_RETURN_IF_ERROR(in->U64(&stats->groups_reduced));
  DOD_RETURN_IF_ERROR(in->U64(&stats->task_attempts));
  DOD_RETURN_IF_ERROR(in->U64(&stats->task_failures));
  DOD_RETURN_IF_ERROR(in->U64(&stats->task_retries));
  DOD_RETURN_IF_ERROR(in->U64(&stats->shuffle_records_dropped));
  DOD_RETURN_IF_ERROR(in->U64(&stats->shuffle_records_corrupted));
  uint64_t num_counters = 0;
  DOD_RETURN_IF_ERROR(in->U64(&num_counters));
  for (uint64_t i = 0; i < num_counters; ++i) {
    std::string name;
    uint64_t value = 0;
    DOD_RETURN_IF_ERROR(in->String(&name));
    DOD_RETURN_IF_ERROR(in->U64(&value));
    stats->counters.Increment(name, value);
  }
  return Status::Ok();
}

}  // namespace dod
