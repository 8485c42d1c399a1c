// Copyright 2026 The DOD Authors.
//
// Batched distance kernels over SoABlock buffers. Four implementations —
// "scalar" (per-pair reference), "blocked" (portable, autovectorization-
// friendly loops over kSoaWidth-wide lanes), "avx2" (intrinsics, a block as
// two 4-wide vectors) and "avx512" (a block as one 8-wide vector whose
// compares land in a mask register) — fill one two-entry function-pointer
// table: the single-query count that detection sweeps and the tile count
// that streaming summaries use. avx2 and avx512 are chosen at runtime
// behind a CPU probe.
//
// Exactness contract: every implementation returns bit-identical verdicts.
// Squared distances are computed as sum_d (q[d] - c[d])^2 with each
// subtract / multiply / add rounded individually (the kernels library is
// built with FP contraction off and the intrinsic paths use explicit
// mul+add, never FMA), accumulated in ascending dimension order — exactly
// the arithmetic of SquaredEuclidean in common/distance.h. Threshold tests
// compare squared distances with <= (ordered _CMP_LE_OQ compares in the
// intrinsic paths, whether into a vector or a mask register), so a pair at
// distance exactly r is a neighbor in every implementation; NaN
// coordinates make the comparison false everywhere, excluding the pair
// identically. Pad slots carry +infinity coordinates and are never
// counted or charged to the pair counters.
//
// What is *not* promised across implementations is the evaluation
// schedule of a capped count. Scalar stops at the pair that reaches the
// cap. The batched paths (blocked, avx2, avx512) check the cap after every
// kSoaWidth-slot block, so they evaluate the same pairs and their counter
// may exceed scalar's by up to kSoaWidth - 1 per capped query. Uncapped
// counts evaluate the same pairs everywhere, and verdicts (count >= k,
// tile counts) are identical.
//
// The count skips the query's own slot by *position*: a caller sweeping a
// segment knows where its query sits, so the kernel never loads slot ids.
//
// Shadow lanes (soa_block.h) do not loosen the contract. Where a buffer's
// float32 lanes cover [begin, end), avx512's count filters 16 slots per
// vector in float against two thresholds derived from r², the buffer's
// extent and dims, so that a slot at or below the lower one is provably
// within r of the double squared distance and a slot above the upper one
// provably outside it; any 8-slot block holding a slot in between (or a
// NaN) is recomputed from the double lanes. The cap stays checked after
// every 8-slot block, so counts, verdicts and `pairs` are those of the
// double path; every other table, and any range the lanes do not cover,
// reads the double lanes only.

#ifndef DOD_KERNELS_DISTANCE_KERNELS_H_
#define DOD_KERNELS_DISTANCE_KERNELS_H_

#include <cstdint>
#include <limits>
#include <string_view>

#include "kernels/kernel_mode.h"
#include "kernels/soa_block.h"

namespace dod {

// count_within_radius's "skip no slot" position.
inline constexpr size_t kNoSkipSlot = std::numeric_limits<size_t>::max();

struct KernelOps {
  const char* name;

  // True iff count_within_radius reads a buffer's float32 shadow lanes
  // (avx512 only); buffer builders keep shadow lanes only for such tables.
  bool reads_shadow;

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

// Table for a mode: kScalar -> scalar; kAuto -> avx512 when compiled in and
// this CPU has avx512f, else avx2 when compiled in and supported, else
// blocked. The kAuto choice is made once per process.
const KernelOps& GetKernelOps(KernelMode mode);

// Table by implementation name ("scalar" | "blocked" | "avx2" | "avx512");
// nullptr when unknown or unavailable on this build/CPU. Used by benches and
// tests to pin an implementation regardless of dispatch.
const KernelOps* GetKernelOpsByName(std::string_view impl);

// True iff the AVX2 specialization is compiled in and this CPU supports it.
bool Avx2KernelsAvailable();

// True iff the AVX-512 specialization is compiled in and this CPU supports
// it (avx512f).
bool Avx512KernelsAvailable();

}  // namespace dod

#endif  // DOD_KERNELS_DISTANCE_KERNELS_H_
