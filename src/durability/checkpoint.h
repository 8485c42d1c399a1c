// Copyright 2026 The DOD Authors.
//
// Durable checkpoint store for MapReduce jobs.
//
// A CheckpointStore owns one directory per job, holding three kinds of
// files:
//
//   MANIFEST.json — snapshot written once when the store opens fresh:
//
//     {
//       "format_version": 3,
//       "job_key": "<caller fingerprint of config + input>",
//       "tasks": [
//         {"phase": "map", "index": 3, "file": "DATA.log",
//          "offset": 0, "bytes": 4096, "checksum": "00a9c1f3e5b70d42"}
//       ]
//     }
//
//   MANIFEST.log — append-only journal; each CommitTask appends one line
//   holding a single task record in the same JSON object shape as a
//   `tasks` entry above, plus the payload's byte offset in the segment.
//   (The checksum is FNV-1a 64 over the payload, serialized as hex text
//   because JSON numbers round-trip through double in this codebase.)
//
//   DATA.log — payload segment; every committed task's payload bytes,
//   appended in commit order. Records address their payload as
//   (file, offset, bytes).
//
// Durability protocol: the payload bytes are appended to the segment
// first, then one record line is appended to the journal. Appends either
// land whole or leave a torn tail; journal replay at Open(resume) stops at
// the first unterminated or unparseable line, so a crash mid-commit merely
// loses that one record (its payload bytes are orphaned dead space in the
// segment, skipped forever) — never torn state. A task is committed iff a
// valid journal/snapshot record exists AND its payload slice matches the
// recorded length and FNV-1a checksum; anything less (truncation,
// corruption, version skew, job-key mismatch) surfaces as a structured
// Status, never UB, and the engine falls back to re-running the task.
//
// Why log-structured instead of a file per task plus a manifest rewrite
// per commit: creating/renaming a file costs ~100us of metadata syscalls
// regardless of size, and rewriting a manifest repeats that; appending to
// an open stream costs microseconds. Commits serialize on the store lock,
// but the held-lock work is two appends, so checkpointing stays in the
// noise of real task work (CI guards the overhead at <= 5%).
//
// The store is thread-safe: segment/journal appends and the record map are
// guarded by an internal mutex.

#ifndef DOD_DURABILITY_CHECKPOINT_H_
#define DOD_DURABILITY_CHECKPOINT_H_

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dod {

// One committed-task record as stored in the manifest.
struct CheckpointRecord {
  std::string phase;  // lowercase identifier: "map", "reduce", "stream", ...
  int index = 0;
  std::string file;     // payload segment, e.g. "DATA.log"
  uint64_t offset = 0;  // payload byte offset within the segment
  uint64_t bytes = 0;
  uint64_t checksum = 0;
};

// Parsed, validated manifest contents.
struct CheckpointManifest {
  int format_version = 0;
  std::string job_key;
  std::vector<CheckpointRecord> records;
};

class CheckpointStore {
 public:
  // Version 3: the per-task JobStats delta that opens every payload is
  // three fields shorter (the simulated duplicate-attempt counts and retry
  // delay are gone). Version 2 made payloads spill-aware: map payloads
  // lead with a spilled flag, reduce payloads carry a fallback-reason
  // byte. Older stores parse differently at those offsets, so they must
  // be rejected at the manifest check rather than misread.
  static constexpr int kFormatVersion = 3;
  // Largest task index the manifest reader accepts. A record committed
  // under a larger index would be refused on replay, so writers whose
  // index grows without bound (the streaming service's round or arrival
  // counter) must check it before committing.
  static constexpr uint64_t kMaxTaskIndex = uint64_t{1} << 30;

  // Opens (creating if needed) the store at `dir` for the job identified
  // by `job_key`. With `resume` false any prior manifest and payloads are
  // discarded. With `resume` true an existing manifest is loaded and its
  // records become resumable; a manifest for a different job_key is a
  // kFailedPrecondition (refusing to mix checkpoints across configs), a
  // missing manifest is simply an empty store, and an unreadable or
  // version-skewed manifest is a structured error.
  static Result<std::unique_ptr<CheckpointStore>> Open(
      const std::string& dir, const std::string& job_key, bool resume);

  // Parses and validates manifest text. Exposed for the fuzz tests; pass
  // an empty `expected_job_key` to skip the job-key check.
  static Result<CheckpointManifest> ParseManifest(
      std::string_view text, const std::string& expected_job_key);

  // Parses and validates one journal line (a single task record object).
  // Exposed for the fuzz tests.
  static Result<CheckpointRecord> ParseRecordLine(std::string_view line);

  // True when a committed record exists for (phase, index).
  bool HasTask(std::string_view phase, int index) const;
  // Number of committed records (across both phases).
  size_t CommittedTasks() const;

  // Loads the committed payload for (phase, index), validating length and
  // checksum against the manifest. NotFound when no record exists; IoError
  // on truncation or corruption.
  Result<std::string> LoadTask(std::string_view phase, int index) const;

  // Durably records `payload` as the committed output of (phase, index),
  // replacing any prior record. On return the record survives a crash.
  Status CommitTask(std::string_view phase, int index,
                    const std::string& payload);

  const std::string& dir() const { return dir_; }
  const std::string& job_key() const { return job_key_; }

 private:
  CheckpointStore(std::string dir, std::string job_key)
      : dir_(std::move(dir)), job_key_(std::move(job_key)) {}

  Status WriteManifestSnapshot();
  Status OpenLogsLocked();

  std::string dir_;
  std::string job_key_;

  mutable std::mutex mu_;
  // (phase, index) -> record.
  std::map<std::pair<std::string, int>, CheckpointRecord> records_;
  // Append-only streams (MANIFEST.log / DATA.log), opened lazily on the
  // first commit and kept open for the store's lifetime. `segment_end_`
  // tracks the segment size — the offset of the next payload.
  std::ofstream journal_;
  std::ofstream segment_;
  uint64_t segment_end_ = 0;
};

}  // namespace dod

#endif  // DOD_DURABILITY_CHECKPOINT_H_
