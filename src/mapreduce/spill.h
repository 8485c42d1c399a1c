// Copyright 2026 The DOD Authors.
//
// Spill-to-disk shuffle runs: the memory-locality layer that lets a job
// whose shuffle would not fit in memory degrade to bounded-residency disk
// runs instead of failing — with byte-identical output.
//
// Map side: when a map attempt's emitted bytes cross the spill threshold,
// every non-empty partition bucket is stable-sorted by key and appended to
// the task's run file as one framed run (header: magic, partition, record
// count, payload bytes, FNV-1a checksum, min/max key; then the raw
// trivially-copyable records — the durability PayloadWriter codec). The
// buckets are then cleared, so resident shuffle state stays bounded by the
// threshold. A task that spilled once flushes its remainder at attempt end,
// so a task's records live either entirely in memory or entirely in runs.
//
// Reduce side: runs are segments of a reduce task's input, read back
// through SpillRunCursor by the grouping layer (see mapreduce/shuffle.h).
// Runs are time-sliced (every record of flush i was emitted before any
// record of flush i+1) and each flush is stably sorted, so scanning a
// task's runs in flush order visits equal keys in emission order — which
// is why spilling is invisible in the job output.
//
// Attempt retries are safe: the run file is truncated at the start of each
// spilling attempt (attempts are sequential and speculative duplicates
// never execute, see mapreduce/task_runner.h), and only the winning
// attempt's run descriptors commit. SpillGc removes every tracked file
// when the job ends; a crash (no destructors) leaves the files for the
// checkpoint-resumed rerun, which re-registers them.

#ifndef DOD_MAPREDUCE_SPILL_H_
#define DOD_MAPREDUCE_SPILL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "durability/checkpoint.h"
#include "durability/memory_budget.h"
#include "durability/payload.h"
#include "observability/trace.h"

namespace dod {

// Where (and when) the shuffle spills. Orthogonal to ShuffleMode: both
// grouping paths accept spilled input. Carried by JobSpec/DodConfig.
struct SpillPolicy {
  // Spill directory; empty disables spilling entirely.
  std::string dir;
  // Per-map-task emitted-bytes threshold that triggers a flush. 0 derives
  // a default from the memory budget (limit / 4) or 64 MiB without one.
  uint64_t threshold_bytes = 0;

  bool enabled() const { return !dir.empty(); }
};

namespace internal {

inline constexpr uint32_t kSpillRunMagic = 0x4E525344;  // "DSRN"
// Spill-run frame header bytes: magic + partition (u32 each), records,
// payload bytes, checksum, min key, max key (u64 each).
inline constexpr size_t kSpillRunHeaderBytes = 2 * 4 + 5 * 8;
// Read granularity of the run cursors (bytes per refill).
inline constexpr size_t kSpillReadChunkBytes = size_t{1} << 16;

// One sorted run on disk: `bytes` of raw records at `offset` in `file`.
// min/max key are the unsigned bit-casts of the run's smallest/largest
// key in the *signed* K domain (the run is sorted by signed <; integral
// keys only, 0 otherwise). Decode with
// static_cast<K>(static_cast<make_unsigned_t<K>>(value)) before
// comparing — for mixed-sign runs the raw u64 values do not order, and
// max_key can sit below min_key.
struct SpillRunInfo {
  std::string file;
  uint32_t partition = 0;
  uint64_t records = 0;
  uint64_t offset = 0;
  uint64_t bytes = 0;
  uint64_t checksum = 0;
  uint64_t min_key = 0;
  uint64_t max_key = 0;
};

// <dir>/<phase>_<task>.runs — one file per task, truncated per attempt.
std::string SpillFilePath(const std::string& dir, const char* phase,
                          int task_index);

// Job-scoped registry of spill files, removed best-effort on destruction
// along with the job's private spill subdirectory (the recursive sweep is
// what reclaims orphans a crashed predecessor with the same scope left —
// e.g. reduce-side runs whose tasks were restored from checkpoints and
// therefore never re-tracked). A hard crash skips destructors,
// deliberately leaving the files for the resumed run (which re-tracks
// map runs via the checkpoint restore path). A checkpointing job arms
// keep_files until it succeeds, so a structured failure preserves the
// runs its durable checkpoint records reference — the same contract as
// the real crash, just with destructors running.
class SpillGc {
 public:
  SpillGc() = default;
  ~SpillGc();
  SpillGc(const SpillGc&) = delete;
  SpillGc& operator=(const SpillGc&) = delete;

  // Thread-safe (map tasks spill concurrently); duplicates are fine.
  void Track(const std::string& file);

  // The job's private spill subdirectory, removed recursively at
  // destruction (unless keep_files is armed). Job-thread only.
  void TrackDir(const std::string& dir) { dir_ = dir; }

  // When true, destruction leaves the tracked files on disk. Job-thread
  // only: set before tasks run, cleared at the job's single success exit.
  void set_keep_files(bool keep) { keep_files_ = keep; }

 private:
  std::mutex mutex_;
  std::vector<std::string> files_;
  std::string dir_;
  bool keep_files_ = false;
};

template <typename K>
uint64_t SpillKeyCast(const K& key) {
  if constexpr (std::is_integral_v<K>) {
    using U = std::make_unsigned_t<K>;
    return static_cast<uint64_t>(static_cast<U>(key));
  } else {
    (void)key;
    return 0;
  }
}

// Writes one task's spill runs. One instance per map task, driven by the
// ShuffleEmitter — Spill() flushes all non-empty buckets as sorted runs,
// Finish() flushes the remainder iff the task spilled at all — or per
// reduce task, as the grouping layer's degrade target (SpillSegment()).
// Errors are sticky; the attempt surfaces them.
template <typename K, typename V>
class TaskSpiller {
 public:
  using Bucket = std::vector<std::pair<K, V>>;
  using Buckets = std::vector<Bucket>;

  TaskSpiller(std::string file, SpillGc* gc)
      : file_(std::move(file)), gc_(gc) {}

  // New attempt: truncate any previous attempt's partial file lazily (the
  // next Spill reopens with trunc) and forget its descriptors.
  void Reset() {
    if (out_.is_open()) out_.close();
    opened_ = false;
    offset_ = 0;
    runs_.clear();
    status_ = Status::Ok();
  }

  bool spilled() const { return !runs_.empty(); }
  const Status& status() const { return status_; }
  std::vector<SpillRunInfo> TakeRuns() { return std::move(runs_); }

  // Flushes every non-empty bucket as one sorted run and clears it.
  void Spill(Buckets& buckets) {
    if (!status_.ok()) return;
    trace::Span span("shuffle", "shuffle_spill");
    uint64_t spilled_records = 0;
    for (size_t p = 0; p < buckets.size(); ++p) {
      if (buckets[p].empty()) continue;
      spilled_records += buckets[p].size();
      Append(static_cast<uint32_t>(p), buckets[p]);
      buckets[p].clear();  // capacity retained for the next fill
    }
    Flush();
    span.Arg("records", spilled_records)
        .Arg("bytes", spilled_records * sizeof(std::pair<K, V>));
  }

  // Attempt end: a task that spilled flushes its remainder too, so its
  // records live either entirely in memory or entirely in runs.
  Status Finish(Buckets& buckets) {
    if (status_.ok() && spilled()) Spill(buckets);
    return status_;
  }

  // Writes one in-memory segment as a single sorted run (sorting it in
  // place) and returns the run's descriptor.
  Result<SpillRunInfo> SpillSegment(Bucket& records) {
    trace::Span span("shuffle", "shuffle_spill");
    Append(0, records);
    Flush();
    if (!status_.ok()) return status_;
    span.Arg("records", static_cast<uint64_t>(records.size()))
        .Arg("bytes", runs_.back().bytes);
    return runs_.back();
  }

 private:
  // Stable-sorts `bucket` by key and appends it to the run file as one
  // framed run tagged with `partition`.
  void Append(uint32_t partition, Bucket& bucket) {
    if (!status_.ok()) return;
    if (!opened_) {
      out_.open(file_, std::ios::binary | std::ios::trunc);
      if (!out_) {
        status_ = Status::IoError("spill: cannot open run file " + file_);
        return;
      }
      opened_ = true;
      if (gc_ != nullptr) gc_->Track(file_);
    }
    std::stable_sort(bucket.begin(), bucket.end(),
                     [](const std::pair<K, V>& a, const std::pair<K, V>& b) {
                       return a.first < b.first;
                     });
    const size_t payload_bytes = bucket.size() * sizeof(std::pair<K, V>);
    const std::string_view payload(
        reinterpret_cast<const char*>(bucket.data()), payload_bytes);
    SpillRunInfo run;
    run.file = file_;
    run.partition = partition;
    run.records = bucket.size();
    run.bytes = payload_bytes;
    run.checksum = Fnv1a64(payload);
    run.min_key = SpillKeyCast(bucket.front().first);
    run.max_key = SpillKeyCast(bucket.back().first);
    PayloadWriter header;
    header.U32(kSpillRunMagic);
    header.U32(run.partition);
    header.U64(run.records);
    header.U64(run.bytes);
    header.U64(run.checksum);
    header.U64(run.min_key);
    header.U64(run.max_key);
    run.offset = offset_ + header.size();
    out_.write(header.str().data(),
               static_cast<std::streamsize>(header.size()));
    out_.write(payload.data(), static_cast<std::streamsize>(payload_bytes));
    offset_ += header.size() + payload_bytes;
    runs_.push_back(std::move(run));
  }

  void Flush() {
    if (!status_.ok() || !opened_) return;
    out_.flush();
    if (!out_) {
      status_ = Status::IoError("spill: write to run file " + file_ +
                                " failed");
    }
  }

  std::string file_;
  SpillGc* gc_;
  std::ofstream out_;
  bool opened_ = false;
  uint64_t offset_ = 0;
  std::vector<SpillRunInfo> runs_;
  Status status_ = Status::Ok();
};

// One job's spill state: its private run directory (empty = the job does
// not spill), the applied threshold and the sweeper of its run files.
struct JobSpill {
  std::string dir;
  uint64_t threshold = 0;
  SpillGc gc;

  // Applies the policy's threshold (see SpillPolicy) and creates the job's
  // own directory under policy.dir, so jobs sharing a spill dir never
  // truncate each other's live run files. When checkpointing, the name
  // hashes the store's identity — a resumed run lands where its crashed
  // predecessor spilled, re-registers those files and finally sweeps them
  // — and gc.keep_files is armed until the job commits (see SpillGc);
  // otherwise the name is unique per process and invocation.
  Status Open(const SpillPolicy& policy, const MemoryBudget* budget,
              const CheckpointStore* checkpoint);

  // Task `task` of `phase`'s run writer (one run file per task), or none
  // when the job does not spill.
  template <typename K, typename V>
  std::optional<TaskSpiller<K, V>> Spiller(const char* phase, size_t task) {
    std::optional<TaskSpiller<K, V>> spiller;
    if (!dir.empty()) {
      spiller.emplace(SpillFilePath(dir, phase, static_cast<int>(task)), &gc);
    }
    return spiller;
  }
};

// Streams one run's records back in fixed-size chunks, folding the
// incremental checksum; the final refill verifies it against the header so
// a corrupted or truncated run degrades into a structured error the
// attempt can surface (and the engine can retry), never into bad groups.
template <typename K, typename V>
class SpillRunCursor {
 public:
  Status Open(const SpillRunInfo& run) {
    run_ = &run;
    in_.open(run.file, std::ios::binary);
    if (!in_) {
      return Status::IoError("spill: cannot open run file " + run.file);
    }
    in_.seekg(static_cast<std::streamoff>(run.offset));
    if (!in_) {
      return Status::IoError("spill: cannot seek run file " + run.file);
    }
    remaining_ = run.records;
    hash_ = Fnv1a64Seed();
    index_ = 0;
    chunk_.clear();
    return Refill();
  }

  bool AtEnd() const { return index_ >= chunk_.size(); }
  const std::pair<K, V>& Head() const { return chunk_[index_]; }

  Status Advance() {
    ++index_;
    if (index_ < chunk_.size()) return Status::Ok();
    return Refill();
  }

 private:
  Status Refill() {
    constexpr size_t kChunkRecords =
        kSpillReadChunkBytes / sizeof(std::pair<K, V>) > 0
            ? kSpillReadChunkBytes / sizeof(std::pair<K, V>)
            : 1;
    index_ = 0;
    const uint64_t take =
        remaining_ < kChunkRecords ? remaining_ : kChunkRecords;
    chunk_.resize(static_cast<size_t>(take));
    if (take == 0) {
      // Exhausted: the whole payload has been folded into the hash.
      if (hash_ != run_->checksum) {
        return Status::IoError("spill: run checksum mismatch in " +
                               run_->file + " (partition " +
                               std::to_string(run_->partition) + ")");
      }
      return Status::Ok();
    }
    const size_t bytes = static_cast<size_t>(take) * sizeof(std::pair<K, V>);
    in_.read(reinterpret_cast<char*>(chunk_.data()),
             static_cast<std::streamsize>(bytes));
    if (in_.gcount() != static_cast<std::streamsize>(bytes)) {
      return Status::IoError("spill: run truncated in " + run_->file);
    }
    hash_ = Fnv1a64Update(
        hash_, std::string_view(reinterpret_cast<const char*>(chunk_.data()),
                                bytes));
    remaining_ -= take;
    return Status::Ok();
  }

  const SpillRunInfo* run_ = nullptr;
  std::ifstream in_;
  std::vector<std::pair<K, V>> chunk_;
  size_t index_ = 0;
  uint64_t remaining_ = 0;
  uint64_t hash_ = 0;
};

}  // namespace internal
}  // namespace dod

#endif  // DOD_MAPREDUCE_SPILL_H_
