// Copyright 2026 The DOD Authors.
//
// Batched distance kernels over SoABlock buffers. Three implementations —
// "scalar" (per-pair reference), "blocked" (portable, autovectorization-
// friendly loops over kSoaWidth-wide lanes) and "avx2" (intrinsics, chosen
// at runtime behind a CPU probe) — share one function-pointer table.
//
// Exactness contract: every implementation returns bit-identical verdicts.
// Squared distances are computed as sum_d (q[d] - c[d])^2 with each
// subtract / multiply / add rounded individually (the kernels library is
// built with FP contraction off and the AVX2 path uses explicit mul+add,
// never FMA), accumulated in ascending dimension order — exactly the
// arithmetic of SquaredEuclidean in common/distance.h. Threshold tests
// compare squared distances with <=, so a pair at distance exactly r is a
// neighbor in every implementation; NaN coordinates make the comparison
// false everywhere (ordered compares), excluding the pair identically.
// Pad slots carry +infinity coordinates and are never counted, matched or
// charged to the pair counters.
//
// What is *not* promised across implementations is the evaluation
// schedule of a capped count. Scalar stops at the pair that reaches the
// cap. Blocked and avx2 check the cap after every kSoaWidth-slot block, so
// the two batched paths evaluate the same pairs and their counter may
// exceed scalar's by up to kSoaWidth - 1 per capped query. Uncapped counts
// evaluate the same pairs everywhere, and verdicts (count >= k,
// membership, minima, distances) are identical.
//
// The count skips the query's own slot by *position*: a caller sweeping a
// segment knows where its query sits, so the kernel never loads slot ids.
// range_mask reports ids and skips by id (DBSCAN's cells are separate
// buffers, each query's id is the one thing it knows).

#ifndef DOD_KERNELS_DISTANCE_KERNELS_H_
#define DOD_KERNELS_DISTANCE_KERNELS_H_

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "kernels/kernel_mode.h"
#include "kernels/soa_block.h"

namespace dod {

// count_within_radius's "skip no slot" position.
inline constexpr size_t kNoSkipSlot = std::numeric_limits<size_t>::max();

struct KernelOps {
  const char* name;

  // Number of slots in [begin, end) whose squared distance to `q` is
  // <= sq_radius, excluding the slot at position skip_slot (pass
  // kNoSkipSlot to skip nothing; a position outside [begin, end) also
  // skips nothing). When cap >= 0, stops scanning once the running count
  // reaches cap — the returned count is then only guaranteed to be >= cap;
  // when cap < 0 the exact count is returned. `pairs`, when non-null,
  // accrues the number of pairs evaluated: the scanned slots, less the
  // skipped one when it was scanned.
  int (*count_within_radius)(const SoABlock& points, size_t begin, size_t end,
                             const double* q, double sq_radius,
                             size_t skip_slot, int cap, uint64_t* pairs);

  // Appends the ids of all slots within sq_radius of `q` to `out`, in slot
  // order. Unlike the count, the skip is by id: slots whose id equals
  // skip_id are excluded (kSoaInvalidId skips nothing).
  void (*range_mask)(const SoABlock& points, const double* q,
                     double sq_radius, uint32_t skip_id,
                     std::vector<uint32_t>* out, uint64_t* pairs);

  // Minimum squared distance from `q` to any slot; +infinity when the
  // buffer is empty or every distance is NaN.
  double (*min_squared_distance)(const SoABlock& points, const double* q,
                                 uint64_t* pairs);

  // Writes the squared distance from `q` to slot j into out[j] for every
  // j < points.size(). `out` must hold points.size() doubles.
  void (*squared_distances)(const SoABlock& points, const double* q,
                            double* out, uint64_t* pairs);

  // Query-block × candidate-segment tile: for each of the `num_queries`
  // query points (row-major, points.dims() doubles per row), adds to
  // row_counts[i] the number of slots in [begin, end) within sq_radius of
  // query i and, when col_counts is non-null, adds to col_counts[j - begin]
  // the number of queries within sq_radius of slot j. Counts are exact (no
  // cap, no skip: a query that also occupies a scanned slot counts itself)
  // and bit-identical across implementations — and either side of a pair
  // may be the query, since (q - p)^2 and (p - q)^2 round the same. The
  // tile evaluates num_queries * (end - begin) pairs; callers that charge
  // a counter compute that product themselves. The streaming summary
  // layer's insert-count, expiry-decrement and first-count primitive.
  void (*count_tile_within_radius)(const SoABlock& points, size_t begin,
                                   size_t end, const double* queries,
                                   size_t num_queries, double sq_radius,
                                   uint32_t* row_counts, uint32_t* col_counts);
};

// Table for a mode: kScalar -> scalar; kAuto -> AVX2 when compiled in and
// supported by this CPU, else blocked.
const KernelOps& GetKernelOps(KernelMode mode);

// Table by implementation name ("scalar" | "blocked" | "avx2"); nullptr
// when unknown or unavailable on this build/CPU. Used by benches and tests
// to pin an implementation regardless of dispatch.
const KernelOps* GetKernelOpsByName(std::string_view impl);

// True iff the AVX2 specialization is compiled in and this CPU supports it.
bool Avx2KernelsAvailable();

}  // namespace dod

#endif  // DOD_KERNELS_DISTANCE_KERNELS_H_
