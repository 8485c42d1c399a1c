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
// cap. Avx2 checks the cap after every kSoaWidth-slot block, so its
// counter of evaluated pairs may exceed scalar's by up to kSoaWidth - 1
// per capped query. Blocked checks it after up to two full blocks, so its
// counter may exceed scalar's by up to 2*kSoaWidth - 1. Uncapped counts
// evaluate the same pairs everywhere, and verdicts (count >= k,
// membership, minima, distances) are identical.

#ifndef DOD_KERNELS_DISTANCE_KERNELS_H_
#define DOD_KERNELS_DISTANCE_KERNELS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "kernels/kernel_mode.h"
#include "kernels/soa_block.h"

namespace dod {

struct KernelOps {
  const char* name;

  // Number of slots in [begin, end) whose squared distance to `q` is
  // <= sq_radius, excluding slots whose id equals skip_id (pass
  // kSoaInvalidId to skip nothing). When cap >= 0, stops scanning once the
  // running count reaches cap — the returned count is then only guaranteed
  // to be >= cap; when cap < 0 the exact count is returned. `pairs`, when
  // non-null, accrues the number of pairs evaluated.
  int (*count_within_radius)(const SoABlock& points, size_t begin, size_t end,
                             const double* q, double sq_radius,
                             uint32_t skip_id, int cap, uint64_t* pairs);

  // Appends the ids of all slots within sq_radius of `q` (skip_id excluded)
  // to `out`, in slot order.
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

  // Block×segment pairwise count: for each of the `num_queries` query
  // points (row-major, points.dims() doubles per row), adds the number of
  // slots in [begin, end) within sq_radius to counts[i]. Counts are exact
  // (no cap, no skip — a query must not itself occupy a scanned slot) and
  // bit-identical across implementations; one call covers a whole
  // query-block × candidate-segment tile, the streaming summary layer's
  // insert-count / expiry-decrement primitive.
  void (*count_block_within_radius)(const SoABlock& points, size_t begin,
                                    size_t end, const double* queries,
                                    size_t num_queries, double sq_radius,
                                    uint32_t* counts, uint64_t* pairs);
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
