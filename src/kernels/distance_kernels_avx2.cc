// Copyright 2026 The DOD Authors.
//
// AVX2 specialization of the distance kernels. Compiled into every build on
// x86-64 GCC/Clang (unless DOD_DISABLE_AVX2 is defined) via per-function
// target attributes; callers reach it only through the dispatch in
// distance_kernels.cc, which probes the CPU at runtime first.
//
// Exactness: squared distances use explicit sub/mul/add intrinsics — never
// FMA — so every lane performs the same individually-rounded operation
// sequence as the scalar kernel. Threshold compares use _CMP_LE_OQ
// (ordered: NaN yields false, ties at exactly r yield true), matching the
// scalar `<=` bit for bit.

#include "kernels/distance_kernels.h"

#if !defined(DOD_DISABLE_AVX2) && defined(__GNUC__) && defined(__x86_64__)
#define DOD_KERNELS_COMPILE_AVX2 1
#else
#define DOD_KERNELS_COMPILE_AVX2 0
#endif

#if DOD_KERNELS_COMPILE_AVX2

#include <immintrin.h>

#include <algorithm>
#include <limits>

#include "kernels/dims_dispatch.h"

#define DOD_AVX2 __attribute__((target("avx2")))

namespace dod {
namespace {

// Every entry dispatches on pts.dims() once per call into a `template <int
// kDims>` body, which broadcasts the query coordinates into registers once
// and then walks the blocks with a fully unrolled dimension loop.
template <int kDims>
DOD_AVX2 inline void BroadcastQuery(const double* q, __m256d* qv) {
  for (int d = 0; d < kDims; ++d) qv[d] = _mm256_set1_pd(q[d]);
}

// Squared distances from the broadcast query `qv` to the kSoaWidth slots of
// `block`, as two 4-wide vectors (slots 0-3 and 4-7). The first dimension's
// square seeds the accumulator: a square is never -0.0, so 0.0 + x is x bit
// for bit and this matches the scalar `sum = 0.0; sum += diff * diff`.
template <int kDims>
DOD_AVX2 inline void BlockSquaredDistances(const SoABlock& pts, size_t block,
                                           const __m256d* qv, __m256d* lo,
                                           __m256d* hi) {
  const double* lane = pts.Lane(block, 0);
  __m256d d0 = _mm256_sub_pd(qv[0], _mm256_loadu_pd(lane));
  __m256d d1 = _mm256_sub_pd(qv[0], _mm256_loadu_pd(lane + 4));
  __m256d acc0 = _mm256_mul_pd(d0, d0);
  __m256d acc1 = _mm256_mul_pd(d1, d1);
  for (int d = 1; d < kDims; ++d) {
    lane += kSoaWidth;
    d0 = _mm256_sub_pd(qv[d], _mm256_loadu_pd(lane));
    d1 = _mm256_sub_pd(qv[d], _mm256_loadu_pd(lane + 4));
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
  }
  *lo = acc0;
  *hi = acc1;
}

// Bit s set iff slot s is within the broadcast radius `r` (NaN distances
// excluded).
DOD_AVX2 inline unsigned WithinMask(__m256d lo, __m256d hi, __m256d r) {
  const unsigned m0 = static_cast<unsigned>(
      _mm256_movemask_pd(_mm256_cmp_pd(lo, r, _CMP_LE_OQ)));
  const unsigned m1 = static_cast<unsigned>(
      _mm256_movemask_pd(_mm256_cmp_pd(hi, r, _CMP_LE_OQ)));
  return m0 | (m1 << 4);
}

static_assert(kSoaWidth == 8, "a block is two 4-wide AVX2 vectors");

// Bits [lo, hi) of a block's slot mask.
inline unsigned SlotRange(size_t lo, size_t hi) {
  return ((1u << hi) - 1u) & ~((1u << lo) - 1u);
}

// Neighbors among the `range` slots of `block` (a partial head or tail).
template <int kDims>
DOD_AVX2 inline int CountInBlock(const SoABlock& pts, size_t block,
                                 unsigned range, const __m256d* qv,
                                 __m256d r) {
  __m256d lo, hi;
  BlockSquaredDistances<kDims>(pts, block, qv, &lo, &hi);
  return __builtin_popcount(WithinMask(lo, hi, r) & range);
}

// Only the partial head and tail blocks of [begin, end) build a range mask.
// An interior block ORs its two compare masks and pays for the movemask,
// the skip and the popcount only when some slot is within r — on a sparse
// sweep almost no block is. The skip slot is a position, so it is a bit
// cleared from the one block that holds it and no id is ever loaded. The
// cap is checked after every block, so a capped query evaluates exactly
// the slots up to the end of the block that reached it, and `pairs` is
// the scanned range less the skip slot when it was scanned.
template <int kDims>
DOD_AVX2 int Avx2CountT(const SoABlock& pts, size_t begin, size_t end,
                        const double* q, double sq_radius, size_t skip_slot,
                        int cap, uint64_t* pairs) {
  __m256d qv[kDims];
  BroadcastQuery<kDims>(q, qv);
  const __m256d r = _mm256_set1_pd(sq_radius);
  const int stop = cap < 0 ? std::numeric_limits<int>::max() : cap;
  const size_t skip_block = skip_slot / kSoaWidth;
  const unsigned skip_bit = 1u << (skip_slot % kSoaWidth);
  int count = 0;
  // `b` is the next block to scan; the scan ends at min(end, b * width).
  size_t b = begin / kSoaWidth;
  const size_t last = (end + kSoaWidth - 1) / kSoaWidth;
  if (begin % kSoaWidth != 0 && b < last) {
    unsigned range = SlotRange(begin % kSoaWidth,
                               std::min(end - b * kSoaWidth, kSoaWidth));
    if (b == skip_block) range &= ~skip_bit;
    count += CountInBlock<kDims>(pts, b, range, qv, r);
    ++b;
  }
  const size_t full_end = end / kSoaWidth;
  for (; b < full_end && count < stop; ++b) {
    __m256d lo, hi;
    BlockSquaredDistances<kDims>(pts, b, qv, &lo, &hi);
    const __m256d in_lo = _mm256_cmp_pd(lo, r, _CMP_LE_OQ);
    const __m256d in_hi = _mm256_cmp_pd(hi, r, _CMP_LE_OQ);
    const __m256d any = _mm256_or_pd(in_lo, in_hi);
    if (_mm256_testz_pd(any, any)) continue;
    unsigned hits =
        static_cast<unsigned>(_mm256_movemask_pd(in_lo)) |
        (static_cast<unsigned>(_mm256_movemask_pd(in_hi)) << 4);
    if (b == skip_block) hits &= ~skip_bit;
    count += __builtin_popcount(hits);
  }
  if (b < last && count < stop) {
    unsigned range = SlotRange(0, end - b * kSoaWidth);
    if (b == skip_block) range &= ~skip_bit;
    count += CountInBlock<kDims>(pts, b, range, qv, r);
    ++b;
  }
  if (pairs != nullptr) {
    *pairs += internal::ScannedPairs(begin, std::min(end, b * kSoaWidth),
                                     skip_slot);
  }
  return count;
}

DOD_AVX2 int Avx2Count(const SoABlock& pts, size_t begin, size_t end,
                       const double* q, double sq_radius, size_t skip_slot,
                       int cap, uint64_t* pairs) {
  if (cap == 0) return 0;
  DOD_DISPATCH_DIMS(Avx2CountT, pts.dims(), pts, begin, end, q, sq_radius,
                    skip_slot, cap, pairs);
}

// The 4-lane double mask of slot bits `bits` (bit s = lane s).
DOD_AVX2 inline __m256d LaneMask(unsigned bits) {
  const __m256i bit = _mm256_set_epi64x(8, 4, 2, 1);
  return _mm256_castsi256_pd(_mm256_cmpeq_epi64(
      _mm256_and_si256(_mm256_set1_epi64x(bits), bit), bit));
}

// Block-major: each block's lanes stay in registers while every query of
// the tile passes over it, and the block's column hits gather in two
// vector counters (a within-radius lane is all ones, i.e. -1) that are
// stored once per block. The differences are (q - c) as in every other
// kernel, with the first dimension's square seeding the sum.
template <int kDims>
DOD_AVX2 void Avx2CountTileT(const SoABlock& pts, size_t begin, size_t end,
                             const double* queries, size_t num_queries,
                             double sq_radius, uint32_t* row_counts,
                             uint32_t* col_counts) {
  const __m256d r = _mm256_set1_pd(sq_radius);
  const size_t first = begin / kSoaWidth;
  const size_t last = (end + kSoaWidth - 1) / kSoaWidth;
  for (size_t b = first; b < last; ++b) {
    const size_t base = b * kSoaWidth;
    const size_t lo_slot = b == first ? begin - base : 0;
    const size_t hi_slot = std::min(end - base, kSoaWidth);
    const unsigned range = SlotRange(lo_slot, hi_slot);
    const __m256d keep_lo = LaneMask(range & 0xFu);
    const __m256d keep_hi = LaneMask(range >> 4);
    __m256d lane_lo[kDims];
    __m256d lane_hi[kDims];
    for (int d = 0; d < kDims; ++d) {
      lane_lo[d] = _mm256_loadu_pd(pts.Lane(b, d));
      lane_hi[d] = _mm256_loadu_pd(pts.Lane(b, d) + 4);
    }
    __m256i hits_lo = _mm256_setzero_si256();
    __m256i hits_hi = _mm256_setzero_si256();
    for (size_t i = 0; i < num_queries; ++i) {
      const double* q = queries + i * kDims;
      __m256d qd = _mm256_broadcast_sd(q);
      __m256d d0 = _mm256_sub_pd(qd, lane_lo[0]);
      __m256d d1 = _mm256_sub_pd(qd, lane_hi[0]);
      __m256d acc0 = _mm256_mul_pd(d0, d0);
      __m256d acc1 = _mm256_mul_pd(d1, d1);
      for (int d = 1; d < kDims; ++d) {
        qd = _mm256_broadcast_sd(q + d);
        d0 = _mm256_sub_pd(qd, lane_lo[d]);
        d1 = _mm256_sub_pd(qd, lane_hi[d]);
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
      }
      const __m256d in_lo =
          _mm256_and_pd(_mm256_cmp_pd(acc0, r, _CMP_LE_OQ), keep_lo);
      const __m256d in_hi =
          _mm256_and_pd(_mm256_cmp_pd(acc1, r, _CMP_LE_OQ), keep_hi);
      const unsigned hits =
          static_cast<unsigned>(_mm256_movemask_pd(in_lo)) |
          (static_cast<unsigned>(_mm256_movemask_pd(in_hi)) << 4);
      row_counts[i] += static_cast<uint32_t>(__builtin_popcount(hits));
      hits_lo = _mm256_sub_epi64(hits_lo, _mm256_castpd_si256(in_lo));
      hits_hi = _mm256_sub_epi64(hits_hi, _mm256_castpd_si256(in_hi));
    }
    if (col_counts != nullptr) {
      alignas(32) int64_t hits[kSoaWidth];
      _mm256_store_si256(reinterpret_cast<__m256i*>(hits), hits_lo);
      _mm256_store_si256(reinterpret_cast<__m256i*>(hits + 4), hits_hi);
      for (size_t s = lo_slot; s < hi_slot; ++s) {
        col_counts[base + s - begin] += static_cast<uint32_t>(hits[s]);
      }
    }
  }
}

DOD_AVX2 void Avx2CountTile(const SoABlock& pts, size_t begin, size_t end,
                            const double* queries, size_t num_queries,
                            double sq_radius, uint32_t* row_counts,
                            uint32_t* col_counts) {
  DOD_DISPATCH_DIMS(Avx2CountTileT, pts.dims(), pts, begin, end, queries,
                    num_queries, sq_radius, row_counts, col_counts);
}

constexpr KernelOps kAvx2Ops = {"avx2", /*reads_shadow=*/false, Avx2Count,
                                Avx2CountTile};

}  // namespace

namespace internal {
const KernelOps* Avx2KernelOpsOrNull() { return &kAvx2Ops; }
}  // namespace internal

}  // namespace dod

#else  // !DOD_KERNELS_COMPILE_AVX2

namespace dod {
namespace internal {
const KernelOps* Avx2KernelOpsOrNull() { return nullptr; }
}  // namespace internal
}  // namespace dod

#endif  // DOD_KERNELS_COMPILE_AVX2
