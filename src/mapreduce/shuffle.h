// Copyright 2026 The DOD Authors.
//
// Reduce-side shuffle grouping: turn one reduce task's input into key
// groups.
//
// A reduce task's input is an ordered segment list — in-memory buckets of
// non-spilled map tasks and disk runs of spilled ones (mapreduce/spill.h),
// in (split, flush) order. GroupSegments is the one grouping function; it
// has two interchangeable paths that produce byte-identical groups, equal
// to a stable sort of the concatenated emission-order records:
//
//  - kSorted: Hadoop's classic merge — the segments appended into one
//    vector and stable-sorted by key, groups read off as equal-key runs.
//    Works for any ordered key type.
//
//  - kColumnar: a two-pass counting sort specialized for dense integral
//    keys (DOD's cell ids). Pass 1 histograms the keys and prefix-sums the
//    histogram into per-key column segments; pass 2 scatters the *values*
//    into one contiguous column, leaving the keys behind (each group knows
//    its key, so per-record keys never need to be materialized again).
//    Scattering in segment order is stable by construction, so groups come
//    out in ascending key order with the exact within-group record order of
//    the sorted path — reducers cannot tell the difference, which is what
//    keeps job output byte-identical whichever path a task takes.
//
// The columnar path is admitted by two guards: a density guard against
// adversarially sparse key spaces (the key range much larger than the
// record count would make the histogram waste memory) and a memory-budget
// check on its scratch. Both are pure functions of the input, so the
// chosen path — and therefore every downstream byte — is identical across
// thread counts and fault schedules.
//
// Reducers consume groups through GroupedView, a zero-copy cursor over
// either backing layout. The default Reducer::TryReduceTask copies each
// group's values into a scratch vector for the per-group Reducer::Reduce
// contract; TryReduceTask overrides read values in place.

#ifndef DOD_MAPREDUCE_SHUFFLE_H_
#define DOD_MAPREDUCE_SHUFFLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "durability/memory_budget.h"
#include "mapreduce/spill.h"
#include "observability/trace.h"

namespace dod {

// Reduce-side grouping strategy. kColumnar is the default; kSorted is the
// fallback (and the only path for non-integral keys).
enum class ShuffleMode {
  kSorted,    // stable sort over (key, value) pairs
  kColumnar,  // counting sort into per-key value-column segments
};

// "sorted" / "columnar".
const char* ShuffleModeName(ShuffleMode mode);

namespace internal {

// Owning scratch behind a GroupedView; one instance per reduce-task
// attempt. Either `values` (columnar) or `merged` (sorted) backs the group
// contents; `offsets` delimits groups in both layouts.
template <typename K, typename V>
struct GroupScratch {
  std::vector<K> keys;         // columnar only: ascending distinct keys
  std::vector<V> values;       // columnar only: value column, grouped
  std::vector<size_t> offsets; // group g spans [offsets[g], offsets[g+1])
  std::vector<size_t> histogram;  // columnar working space (reused)
  std::vector<std::pair<K, V>> merged;  // sorted only: key-sorted records
};

}  // namespace internal

// Read-only view of one reduce task's key groups, in ascending key order
// with the map-commit record order inside each group. Group g's values sit
// at logical indices [0, size(g)); `column(g)` additionally exposes them as
// a contiguous span when the columnar path produced them.
template <typename K, typename V>
class GroupedView {
 public:
  // Columnar backing: distinct keys + grouped value column.
  GroupedView(const std::vector<K>& keys, const std::vector<V>& values,
              const std::vector<size_t>& offsets)
      : keys_(&keys), values_(&values), pairs_(nullptr), offsets_(&offsets) {}

  // Sorted backing: key-sorted pairs + group offsets.
  GroupedView(const std::vector<std::pair<K, V>>& pairs,
              const std::vector<size_t>& offsets)
      : keys_(nullptr), values_(nullptr), pairs_(&pairs), offsets_(&offsets) {}

  size_t num_groups() const {
    return offsets_->empty() ? 0 : offsets_->size() - 1;
  }
  size_t num_records() const {
    return offsets_->empty() ? 0 : offsets_->back();
  }

  const K& key(size_t g) const {
    return pairs_ != nullptr ? (*pairs_)[(*offsets_)[g]].first : (*keys_)[g];
  }

  size_t size(size_t g) const {
    return (*offsets_)[g + 1] - (*offsets_)[g];
  }

  const V& value(size_t g, size_t i) const {
    const size_t index = (*offsets_)[g] + i;
    return pairs_ != nullptr ? (*pairs_)[index].second : (*values_)[index];
  }

  // Contiguous value span of group g, or nullptr under the sorted backing
  // (values interleave with keys there). Zero-copy fast path for columnar
  // task reducers.
  const V* column(size_t g) const {
    return values_ != nullptr ? values_->data() + (*offsets_)[g] : nullptr;
  }

 private:
  const std::vector<K>* keys_;
  const std::vector<V>* values_;
  const std::vector<std::pair<K, V>>* pairs_;
  const std::vector<size_t>* offsets_;
};

namespace internal {

// One piece of a reduce task's input, in (split, flush) order: either a
// non-spilled map task's in-memory bucket (emission order) or one disk run
// (stably sorted). `memory` is null for a run.
template <typename K, typename V>
struct ShuffleSegment {
  std::vector<std::pair<K, V>>* memory = nullptr;
  SpillRunInfo run;
};

// Grouping outcome, for the engine's shuffle accounting.
enum class GroupPath : uint8_t {
  kColumnar = 0,  // counting sort
  kSorted = 1,    // stable sort — requested, or a columnar fallback
};

// Which guard pushed a columnar-requested task off the plain counting
// sort over its resident segments. Orthogonal to GroupPath: a kSorted
// task carries the guard that rejected the histogram (kDensity, kBudget),
// a kColumnar task carries kSpill when its memory segments were written
// out as runs so the histogram could run with only its scratch resident.
// Feeds the reason-labeled mr.shuffle.fallback.* counters.
enum class FallbackReason : uint8_t {
  kNone = 0,
  kDensity,  // key range too sparse for a counting histogram
  kBudget,   // histogram scratch exceeds the memory budget
  kSpill,    // scratch + resident segments exceed the budget; the segments
             // were spilled so the histogram could run with only scratch
             // resident
};

// Sparsity guard for the counting histogram: fall back to sorting when the
// key range exceeds this multiple of the record count (plus slack for tiny
// buckets). Cell-id key spaces are dense, so real jobs never trip it.
inline constexpr uint64_t kDenseRangeSlack = 1024;
inline constexpr uint64_t kDenseRangePerRecord = 4;

// Bytes of scratch the columnar path would allocate for `records` records
// over a key `range`: histogram + value column + worst-case keys/offsets.
// A pure function of the input, so budget decisions built on it are
// deterministic.
inline uint64_t ColumnarScratchBytes(uint64_t records, uint64_t range,
                                     size_t key_bytes, size_t value_bytes) {
  const uint64_t groups = std::min(records, range);
  return range * sizeof(size_t) + records * value_bytes +
         groups * key_bytes + (groups + 1) * sizeof(size_t);
}

// Columnar admission: the density guard, then the budget check on the
// histogram scratch. MemoryBudget::FitsAlone is a pure function of
// (estimate, limit), so the verdict never depends on concurrent
// allocations — the chosen path is identical across thread counts and
// fault schedules.
inline FallbackReason AdmitColumnar(uint64_t records, uint64_t range,
                                    uint64_t scratch_bytes,
                                    const MemoryBudget* budget) {
  if (range > kDenseRangeSlack + kDenseRangePerRecord * records) {
    return FallbackReason::kDensity;
  }
  if (budget != nullptr && !budget->FitsAlone(scratch_bytes)) {
    return FallbackReason::kBudget;
  }
  return FallbackReason::kNone;
}

// Calls fn(record) for every record of `segment` in stored order; runs
// stream through the checksum-verifying SpillRunCursor. A run's checksum
// is verified only at its end, so a record whose key lies outside the
// run's [min_key, max_key] fails first: it would index past the columnar
// histogram.
template <typename K, typename V, typename Fn>
Status ForEachRecord(const ShuffleSegment<K, V>& segment, Fn&& fn) {
  if (segment.memory != nullptr) {
    for (const std::pair<K, V>& record : *segment.memory) fn(record);
    return Status::Ok();
  }
  SpillRunCursor<K, V> cursor;
  DOD_RETURN_IF_ERROR(cursor.Open(segment.run));
  while (!cursor.AtEnd()) {
    if constexpr (std::is_integral_v<K>) {
      using U = std::make_unsigned_t<K>;
      const K key = cursor.Head().first;
      if (key < static_cast<K>(static_cast<U>(segment.run.min_key)) ||
          static_cast<K>(static_cast<U>(segment.run.max_key)) < key) {
        return Status::IoError("spill: run key outside its range in " +
                               segment.run.file);
      }
    }
    fn(cursor.Head());
    DOD_RETURN_IF_ERROR(cursor.Advance());
  }
  return Status::Ok();
}

// Reads group offsets off a key-sorted pair sequence (equal-key runs).
template <typename K, typename V>
void ComputeGroupOffsets(const std::vector<std::pair<K, V>>& pairs,
                         std::vector<size_t>* offsets) {
  offsets->clear();
  size_t i = 0;
  while (i < pairs.size()) {
    offsets->push_back(i);
    size_t j = i;
    while (j < pairs.size() && !(pairs[i].first < pairs[j].first) &&
           !(pairs[j].first < pairs[i].first)) {
      ++j;
    }
    i = j;
  }
  offsets->push_back(pairs.size());
}

// Groups one reduce task's segment list under `mode` — the only grouping
// function. Both paths yield the groups of a stable sort of the segments'
// concatenation, byte for byte:
//
//  * columnar: a two-pass counting sort streamed over the segments
//    (histogram, then value scatter), admitted by AdmitColumnar over the
//    segments' key span (integral K only);
//  * sorted: every segment appended in order into scratch->merged, then
//    one std::stable_sort.
//
// `degrade` (optional, spilling jobs only) is the task's run writer. When
// the histogram passes both guards but its scratch next to the resident
// memory segments exceeds `budget`, each memory segment is written out as
// a run, freed, and replaced by that run in place — order holds, and a
// retry regroups from the runs with no special case. A task whose degrade
// target holds runs reports FallbackReason::kSpill.
//
// Segments are never mutated otherwise, so attempt retries are safe.
template <typename K, typename V>
Result<GroupedView<K, V>> GroupSegments(
    std::vector<ShuffleSegment<K, V>>& segments, ShuffleMode mode,
    GroupScratch<K, V>* scratch, GroupPath* path, FallbackReason* reason,
    const MemoryBudget* budget, TaskSpiller<K, V>* degrade = nullptr) {
  *reason = FallbackReason::kNone;
  uint64_t records = 0;
  uint64_t resident_bytes = 0;
  for (const ShuffleSegment<K, V>& segment : segments) {
    if (segment.memory != nullptr) {
      records += segment.memory->size();
      resident_bytes += segment.memory->size() * sizeof(std::pair<K, V>);
    } else {
      records += segment.run.records;
    }
  }
  *path = mode == ShuffleMode::kColumnar ? GroupPath::kColumnar
                                         : GroupPath::kSorted;
  if (records == 0) {
    scratch->merged.clear();
    scratch->offsets.clear();
    return GroupedView<K, V>(scratch->merged, scratch->offsets);
  }

  if (mode == ShuffleMode::kColumnar) {
    if constexpr (std::is_integral_v<K>) {
      using U = std::make_unsigned_t<K>;
      // Key span in the signed K domain: memory segments are scanned, runs
      // contribute the bit-casts of their signed extremes (decoded through
      // U — the raw u64 values do not order across signs).
      bool have_keys = false;
      K min_key{};
      K max_key{};
      const auto fold = [&](K key) {
        min_key = have_keys ? std::min(min_key, key) : key;
        max_key = have_keys ? std::max(max_key, key) : key;
        have_keys = true;
      };
      for (const ShuffleSegment<K, V>& segment : segments) {
        if (segment.memory != nullptr) {
          for (const std::pair<K, V>& record : *segment.memory) {
            fold(record.first);
          }
        } else if (segment.run.records > 0) {
          fold(static_cast<K>(static_cast<U>(segment.run.min_key)));
          fold(static_cast<K>(static_cast<U>(segment.run.max_key)));
        }
      }
      // Two's-complement subtraction in the unsigned domain handles
      // negative keys and cannot overflow. (For keys narrower than int the
      // operands promote, a mixed-sign span goes negative, and the density
      // guard rejects it.)
      const uint64_t range =
          static_cast<uint64_t>(static_cast<U>(max_key) -
                                static_cast<U>(min_key)) + 1;
      const uint64_t scratch_bytes =
          ColumnarScratchBytes(records, range, sizeof(K), sizeof(V));
      *reason = AdmitColumnar(records, range, scratch_bytes, budget);
      if (*reason == FallbackReason::kNone) {
        if (degrade != nullptr && budget != nullptr && resident_bytes > 0 &&
            !budget->FitsAlone(scratch_bytes + resident_bytes)) {
          for (ShuffleSegment<K, V>& segment : segments) {
            if (segment.memory == nullptr || segment.memory->empty()) continue;
            DOD_ASSIGN_OR_RETURN(segment.run,
                                 degrade->SpillSegment(*segment.memory));
            // Free the resident bucket for real — the histogram must run
            // with only its scratch resident, which is the point.
            *segment.memory = std::vector<std::pair<K, V>>();
            segment.memory = nullptr;
          }
        }
        if (degrade != nullptr && degrade->spilled()) {
          *reason = FallbackReason::kSpill;
        }
        // Pass 1: histogram the keys, then prefix-sum into per-key write
        // cursors. Slots subtract in the U domain, so negative keys land
        // like any other.
        const auto slot = [min_key](K key) {
          return static_cast<size_t>(static_cast<U>(key) -
                                     static_cast<U>(min_key));
        };
        std::vector<size_t>& cursor = scratch->histogram;
        cursor.assign(static_cast<size_t>(range), 0);
        for (const ShuffleSegment<K, V>& segment : segments) {
          DOD_RETURN_IF_ERROR(
              ForEachRecord(segment, [&](const std::pair<K, V>& record) {
                ++cursor[slot(record.first)];
              }));
        }
        scratch->keys.clear();
        scratch->offsets.clear();
        size_t total = 0;
        for (size_t s = 0; s < cursor.size(); ++s) {
          const size_t count = cursor[s];
          if (count == 0) continue;  // absent keys produce no group
          scratch->keys.push_back(
              static_cast<K>(static_cast<U>(min_key) + static_cast<U>(s)));
          scratch->offsets.push_back(total);
          cursor[s] = total;  // becomes the group's write cursor
          total += count;
        }
        scratch->offsets.push_back(total);
        // Pass 2: scatter the values segment by segment in the same order.
        // Within a key, records land in (segment, position) order — the
        // emission order (runs are time-sliced and stably sorted).
        scratch->values.resize(static_cast<size_t>(records));
        for (const ShuffleSegment<K, V>& segment : segments) {
          DOD_RETURN_IF_ERROR(
              ForEachRecord(segment, [&](const std::pair<K, V>& record) {
                scratch->values[cursor[slot(record.first)]++] = record.second;
              }));
        }
        return GroupedView<K, V>(scratch->keys, scratch->values,
                                 scratch->offsets);
      }
    } else {
      *reason = FallbackReason::kDensity;  // non-integral keys cannot count
    }
  }

  // Sorted path: concatenate, then one stable sort. Runs are time-sliced
  // and stably sorted, so equal keys already sit in emission order in the
  // concatenation.
  *path = GroupPath::kSorted;
  {
    trace::Span span("shuffle", "merge");
    span.Arg("segments", static_cast<uint64_t>(segments.size()))
        .Arg("records", records);
    std::vector<std::pair<K, V>>& merged = scratch->merged;
    merged.clear();
    merged.reserve(static_cast<size_t>(records));
    for (const ShuffleSegment<K, V>& segment : segments) {
      if (segment.memory != nullptr) {
        merged.insert(merged.end(), segment.memory->begin(),
                      segment.memory->end());
      } else {
        DOD_RETURN_IF_ERROR(
            ForEachRecord(segment, [&merged](const std::pair<K, V>& record) {
              merged.push_back(record);
            }));
      }
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const std::pair<K, V>& a, const std::pair<K, V>& b) {
                       return a.first < b.first;
                     });
  }
  ComputeGroupOffsets(scratch->merged, &scratch->offsets);
  return GroupedView<K, V>(scratch->merged, scratch->offsets);
}

// Groups one in-memory bucket: GroupSegments over a single memory
// segment. Leaves the bucket untouched.
template <typename K, typename V>
GroupedView<K, V> GroupBucket(std::vector<std::pair<K, V>>& bucket,
                              ShuffleMode mode, GroupScratch<K, V>* scratch,
                              GroupPath* path,
                              const MemoryBudget* budget = nullptr,
                              FallbackReason* reason = nullptr) {
  std::vector<ShuffleSegment<K, V>> segments(1);
  segments[0].memory = &bucket;
  FallbackReason ignored;
  // Memory segments involve no I/O, so grouping cannot fail.
  return GroupSegments(segments, mode, scratch, path,
                       reason != nullptr ? reason : &ignored, budget)
      .ValueOrDie();
}

}  // namespace internal
}  // namespace dod

#endif  // DOD_MAPREDUCE_SHUFFLE_H_
