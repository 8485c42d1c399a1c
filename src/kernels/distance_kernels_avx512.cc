// Copyright 2026 The DOD Authors.
//
// AVX-512 specialization of the two count kernels. A kSoaWidth-slot block
// is exactly one 8-lane zmm vector per dimension, and a compare writes its
// verdicts straight into an 8-bit mask register, so the head/tail range and
// the skip slot are mask ANDs and a block's hits are one popcount. The
// other entry, squared_distances, reuses the AVX2 table's. Compiled in
// under the same guard as the AVX2 table (DOD_DISABLE_AVX2 removes both)
// via per-function target attributes; callers reach it only through the
// dispatch in distance_kernels.cc, which probes the CPU at runtime first.
//
// Exactness: squared distances use explicit sub/mul/add intrinsics — never
// FMA, and the library is built with -ffp-contract=off — so every lane
// performs the same individually-rounded operation sequence as the scalar
// kernel. Compares use _CMP_LE_OQ (ordered: NaN yields false, ties at
// exactly r yield true), matching the scalar `<=` bit for bit.

#include "kernels/distance_kernels.h"

#if !defined(DOD_DISABLE_AVX2) && defined(__GNUC__) && defined(__x86_64__)
#define DOD_KERNELS_COMPILE_AVX512 1
#else
#define DOD_KERNELS_COMPILE_AVX512 0
#endif

#if DOD_KERNELS_COMPILE_AVX512

#include <immintrin.h>

#include <algorithm>
#include <limits>

#include "kernels/dims_dispatch.h"

#define DOD_AVX512 __attribute__((target("avx512f")))

namespace dod {
namespace internal {
// Defined in distance_kernels_avx2.cc, which compiles under the same guard.
const KernelOps* Avx2KernelOpsOrNull();
}  // namespace internal

namespace {

static_assert(kSoaWidth == 8, "a block is one 8-lane zmm vector");

template <int kDims>
DOD_AVX512 inline void BroadcastQuery(const double* q, __m512d* qv) {
  for (int d = 0; d < kDims; ++d) qv[d] = _mm512_set1_pd(q[d]);
}

// Squared distances from the broadcast query `qv` to the kSoaWidth slots of
// `block`. The first dimension's square seeds the accumulator: a square is
// never -0.0, so 0.0 + x is x bit for bit and this matches the scalar
// `sum = 0.0; sum += diff * diff`.
template <int kDims>
DOD_AVX512 inline __m512d BlockSquaredDistances(const SoABlock& pts,
                                                size_t block,
                                                const __m512d* qv) {
  const double* lane = pts.Lane(block, 0);
  __m512d diff = _mm512_sub_pd(qv[0], _mm512_loadu_pd(lane));
  __m512d acc = _mm512_mul_pd(diff, diff);
  for (int d = 1; d < kDims; ++d) {
    lane += kSoaWidth;
    diff = _mm512_sub_pd(qv[d], _mm512_loadu_pd(lane));
    acc = _mm512_add_pd(acc, _mm512_mul_pd(diff, diff));
  }
  return acc;
}

// Bit s set iff slot s of `block` is within the broadcast radius `r` (NaN
// distances excluded).
template <int kDims>
DOD_AVX512 inline __mmask8 WithinMask(const SoABlock& pts, size_t block,
                                      const __m512d* qv, __m512d r) {
  return _mm512_cmp_pd_mask(BlockSquaredDistances<kDims>(pts, block, qv), r,
                            _CMP_LE_OQ);
}

// Bits [lo, hi) of a block's slot mask.
inline __mmask8 SlotRange(size_t lo, size_t hi) {
  return static_cast<__mmask8>(((1u << hi) - 1u) & ~((1u << lo) - 1u));
}

inline int Popcount(__mmask8 bits) {
  return __builtin_popcount(static_cast<unsigned>(bits));
}

// The schedule is avx2's: partial head and tail blocks take a range mask,
// the skip slot is a bit cleared from the one block that holds it, and the
// cap is checked after every block, so a capped query evaluates exactly the
// slots up to the end of the block that reached it. Interior blocks go two
// per iteration with one branch on the pair's combined compare mask: on a
// sparse sweep almost no pair has a hit. A pair with hits adds block b,
// checks the cap, and only then adds block b + 1.
template <int kDims>
DOD_AVX512 int Avx512CountT(const SoABlock& pts, size_t begin, size_t end,
                            const double* q, double sq_radius,
                            size_t skip_slot, int cap, uint64_t* pairs) {
  __m512d qv[kDims];
  BroadcastQuery<kDims>(q, qv);
  const __m512d r = _mm512_set1_pd(sq_radius);
  const int stop = cap < 0 ? std::numeric_limits<int>::max() : cap;
  const size_t skip_block = skip_slot / kSoaWidth;
  const __mmask8 skip_out =
      static_cast<__mmask8>(~(1u << (skip_slot % kSoaWidth)));
  // Slots of block `b` that may count: all but the skip slot.
  const auto keep = [skip_block, skip_out](size_t b) {
    return b == skip_block ? skip_out : static_cast<__mmask8>(0xFF);
  };
  int count = 0;
  // `b` is the next block to scan; the scan ends at min(end, b * width).
  size_t b = begin / kSoaWidth;
  const size_t last = (end + kSoaWidth - 1) / kSoaWidth;
  if (begin % kSoaWidth != 0 && b < last) {
    const __mmask8 range = SlotRange(
        begin % kSoaWidth, std::min(end - b * kSoaWidth, kSoaWidth));
    count += Popcount(WithinMask<kDims>(pts, b, qv, r) & range & keep(b));
    ++b;
  }
  const size_t full_end = end / kSoaWidth;
  // The count only moves on a pair with hits, so only there is the cap
  // checked again.
  if (count < stop) {
    for (; b + 2 <= full_end; b += 2) {
      const __mmask8 m0 = WithinMask<kDims>(pts, b, qv, r);
      const __mmask8 m1 = WithinMask<kDims>(pts, b + 1, qv, r);
      if ((m0 | m1) == 0) continue;
      count += Popcount(m0 & keep(b));
      if (count >= stop) {
        b += 1;
        break;
      }
      count += Popcount(m1 & keep(b + 1));
      if (count >= stop) {
        b += 2;
        break;
      }
    }
  }
  if (b < full_end && count < stop) {
    count += Popcount(WithinMask<kDims>(pts, b, qv, r) & keep(b));
    ++b;
  }
  if (b < last && count < stop) {
    const __mmask8 range = SlotRange(0, end - b * kSoaWidth);
    count += Popcount(WithinMask<kDims>(pts, b, qv, r) & range & keep(b));
    ++b;
  }
  if (pairs != nullptr) {
    *pairs += internal::ScannedPairs(begin, std::min(end, b * kSoaWidth),
                                     skip_slot);
  }
  return count;
}

DOD_AVX512 int Avx512Count(const SoABlock& pts, size_t begin, size_t end,
                           const double* q, double sq_radius,
                           size_t skip_slot, int cap, uint64_t* pairs) {
  if (cap == 0) return 0;
  DOD_DISPATCH_DIMS(Avx512CountT, pts.dims(), pts, begin, end, q, sq_radius,
                    skip_slot, cap, pairs);
}

// Block-major, like avx2's tile: each block's lanes stay in registers while
// every query of the tile passes over it. A masked compare keeps the hits
// inside the block's range, and the block's column hits gather in one
// 8 x 64-bit counter vector that is stored once per block.
template <int kDims>
DOD_AVX512 void Avx512CountTileT(const SoABlock& pts, size_t begin,
                                 size_t end, const double* queries,
                                 size_t num_queries, double sq_radius,
                                 uint32_t* row_counts, uint32_t* col_counts) {
  const __m512d r = _mm512_set1_pd(sq_radius);
  const __m512i one = _mm512_set1_epi64(1);
  const size_t first = begin / kSoaWidth;
  const size_t last = (end + kSoaWidth - 1) / kSoaWidth;
  for (size_t b = first; b < last; ++b) {
    const size_t base = b * kSoaWidth;
    const size_t lo_slot = b == first ? begin - base : 0;
    const size_t hi_slot = std::min(end - base, kSoaWidth);
    const __mmask8 range = SlotRange(lo_slot, hi_slot);
    __m512d lane[kDims];
    for (int d = 0; d < kDims; ++d) lane[d] = _mm512_loadu_pd(pts.Lane(b, d));
    __m512i hits = _mm512_setzero_si512();
    for (size_t i = 0; i < num_queries; ++i) {
      const double* q = queries + i * kDims;
      __m512d diff = _mm512_sub_pd(_mm512_set1_pd(q[0]), lane[0]);
      __m512d acc = _mm512_mul_pd(diff, diff);
      for (int d = 1; d < kDims; ++d) {
        diff = _mm512_sub_pd(_mm512_set1_pd(q[d]), lane[d]);
        acc = _mm512_add_pd(acc, _mm512_mul_pd(diff, diff));
      }
      const __mmask8 in = _mm512_mask_cmp_pd_mask(range, acc, r, _CMP_LE_OQ);
      row_counts[i] += static_cast<uint32_t>(Popcount(in));
      hits = _mm512_mask_add_epi64(hits, in, hits, one);
    }
    if (col_counts != nullptr) {
      alignas(64) int64_t column[kSoaWidth];
      _mm512_store_si512(column, hits);
      for (size_t s = lo_slot; s < hi_slot; ++s) {
        col_counts[base + s - begin] += static_cast<uint32_t>(column[s]);
      }
    }
  }
}

DOD_AVX512 void Avx512CountTile(const SoABlock& pts, size_t begin,
                                size_t end, const double* queries,
                                size_t num_queries, double sq_radius,
                                uint32_t* row_counts, uint32_t* col_counts) {
  DOD_DISPATCH_DIMS(Avx512CountTileT, pts.dims(), pts, begin, end, queries,
                    num_queries, sq_radius, row_counts, col_counts);
}

}  // namespace

namespace internal {
const KernelOps* Avx512KernelOpsOrNull() {
  static const KernelOps ops = [] {
    KernelOps table = *Avx2KernelOpsOrNull();
    table.name = "avx512";
    table.count_within_radius = Avx512Count;
    table.count_tile_within_radius = Avx512CountTile;
    return table;
  }();
  return &ops;
}
}  // namespace internal

}  // namespace dod

#else  // !DOD_KERNELS_COMPILE_AVX512

namespace dod {
namespace internal {
const KernelOps* Avx512KernelOpsOrNull() { return nullptr; }
}  // namespace internal
}  // namespace dod

#endif  // DOD_KERNELS_COMPILE_AVX512
