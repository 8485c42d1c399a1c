// Copyright 2026 The DOD Authors.

#include "mapreduce/spill.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <system_error>

namespace dod {
namespace internal {

std::string SpillFilePath(const std::string& dir, const char* phase,
                          int task_index) {
  return dir + "/" + phase + "_" + std::to_string(task_index) + ".runs";
}

SpillGc::~SpillGc() {
  if (keep_files_) return;
  std::error_code ec;
  for (const std::string& file : files_) {
    std::filesystem::remove(file, ec);  // best-effort; ec ignored
  }
  if (!dir_.empty()) {
    std::filesystem::remove_all(dir_, ec);  // sweeps predecessors' orphans
  }
}

void SpillGc::Track(const std::string& file) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::string& existing : files_) {
    if (existing == file) return;
  }
  files_.push_back(file);
}

Status JobSpill::Open(const SpillPolicy& policy, const MemoryBudget* budget,
                      const CheckpointStore* checkpoint) {
  threshold = policy.threshold_bytes;
  if (threshold == 0) {
    threshold = budget != nullptr && budget->limit_bytes() > 0
                    ? std::max<uint64_t>(budget->limit_bytes() / 4, 1)
                    : uint64_t{64} << 20;
  }
  char name[64];
  if (checkpoint != nullptr) {
    const std::string scope = checkpoint->dir() + "\n" + checkpoint->job_key();
    std::snprintf(name, sizeof(name), "/job_%016llx",
                  static_cast<unsigned long long>(Fnv1a64(scope)));
  } else {
    static std::atomic<uint64_t> next_job{0};
    std::snprintf(name, sizeof(name), "/pid%ld_%llu",
                  static_cast<long>(::getpid()),
                  static_cast<unsigned long long>(
                      next_job.fetch_add(1, std::memory_order_relaxed)));
  }
  dir = policy.dir + name;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("RunMapReduce: cannot create spill directory " +
                           dir + ": " + ec.message());
  }
  gc.TrackDir(dir);
  gc.set_keep_files(checkpoint != nullptr);
  return Status::Ok();
}

}  // namespace internal
}  // namespace dod
