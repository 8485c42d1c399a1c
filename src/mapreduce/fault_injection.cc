// Copyright 2026 The DOD Authors.

#include "mapreduce/fault_injection.h"

#include "common/random.h"

namespace dod {
namespace {

// Domain-separation tags so the per-attempt and per-record draws are
// independent streams of the same seed.
constexpr uint64_t kTaskFailureTag = 0xFA11;
constexpr uint64_t kShuffleTag = 0xD09;

// One hash-derived uniform draw in [0, 1). SplitMix64 over the mixed
// coordinates gives independence across nearby inputs.
double UniformDraw(uint64_t seed, uint64_t tag, TaskPhase phase,
                   int task_index, int attempt, uint64_t extra = 0) {
  SplitMix64 sm(seed ^ (tag * 0x9E3779B97F4A7C15ULL));
  uint64_t h = sm.Next();
  h ^= (static_cast<uint64_t>(phase) + 1) * 0xBF58476D1CE4E5B9ULL;
  h ^= (static_cast<uint64_t>(task_index) + 1) * 0x94D049BB133111EBULL;
  h ^= (static_cast<uint64_t>(attempt) + 1) * 0xD6E8FEB86659FD93ULL;
  h ^= extra * 0xC2B2AE3D27D4EB4FULL;
  SplitMix64 finisher(h);
  return static_cast<double>(finisher.Next() >> 11) * 0x1.0p-53;
}

}  // namespace

const char* TaskPhaseName(TaskPhase phase) {
  return phase == TaskPhase::kMap ? "map" : "reduce";
}

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kTaskFailure:
      return "task-failure";
    case FaultKind::kShuffleDrop:
      return "shuffle-drop";
    case FaultKind::kShuffleCorrupt:
      return "shuffle-corrupt";
  }
  return "unknown";
}

FaultKind FaultInjector::TaskFault(TaskPhase phase, int task_index,
                                   int attempt) const {
  if (!spec_.enabled || attempt >= spec_.max_faulty_attempts_per_task) {
    return FaultKind::kNone;
  }
  return UniformDraw(spec_.seed, kTaskFailureTag, phase, task_index,
                     attempt) < spec_.task_failure_prob
             ? FaultKind::kTaskFailure
             : FaultKind::kNone;
}

FaultKind FaultInjector::ShuffleRecordFault(TaskPhase phase, int task_index,
                                            int attempt,
                                            uint64_t record_seq) const {
  if (!spec_.enabled || attempt >= spec_.max_faulty_attempts_per_task) {
    return FaultKind::kNone;
  }
  if (spec_.shuffle_drop_prob <= 0.0 && spec_.shuffle_corrupt_prob <= 0.0) {
    return FaultKind::kNone;
  }
  const double draw = UniformDraw(spec_.seed, kShuffleTag, phase, task_index,
                                  attempt, record_seq + 1);
  if (draw < spec_.shuffle_drop_prob) return FaultKind::kShuffleDrop;
  if (draw < spec_.shuffle_drop_prob + spec_.shuffle_corrupt_prob) {
    return FaultKind::kShuffleCorrupt;
  }
  return FaultKind::kNone;
}

Status ShuffleFaultFilter::AttemptStatus() const {
  if (dropped_ == 0 && corrupted_ == 0) return Status::Ok();
  const FaultKind kind =
      dropped_ > 0 ? FaultKind::kShuffleDrop : FaultKind::kShuffleCorrupt;
  return Status::Unavailable(
      std::string("injected ") + FaultKindName(kind) + " (" +
      std::to_string(dropped_) + " dropped, " + std::to_string(corrupted_) +
      " corrupted shuffle records)");
}

}  // namespace dod
