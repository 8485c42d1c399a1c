// Copyright 2026 The DOD Authors.
//
// AVX-512 specialization of the two count kernels. A kSoaWidth-slot block
// is exactly one 8-lane zmm vector per dimension, and a compare writes its
// verdicts straight into an 8-bit mask register, so the head/tail range and
// the skip slot are mask ANDs and a block's hits are one popcount. On a
// buffer with float32 shadow lanes (soa_block.h) the count first filters
// 16 slots per vector in float and goes back to the double lanes only for
// the blocks the filter cannot decide ("Float filter" below). Compiled in
// under the same guard as the AVX2 table (DOD_DISABLE_AVX2 removes both) via
// per-function target attributes; callers reach it only through the
// dispatch in distance_kernels.cc, which probes the CPU at runtime first.
//
// Exactness: squared distances use explicit sub/mul/add intrinsics — never
// FMA, and the library is built with -ffp-contract=off — so every lane
// performs the same individually-rounded operation sequence as the scalar
// kernel. Compares use _CMP_LE_OQ (ordered: NaN yields false, ties at
// exactly r yield true), matching the scalar `<=` bit for bit. The float
// filter answers only for slots whose double verdict it has proven.

#include "kernels/distance_kernels.h"

#if !defined(DOD_DISABLE_AVX2) && defined(__GNUC__) && defined(__x86_64__)
#define DOD_KERNELS_COMPILE_AVX512 1
#else
#define DOD_KERNELS_COMPILE_AVX512 0
#endif

#if DOD_KERNELS_COMPILE_AVX512

#include <immintrin.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>

#include "kernels/dims_dispatch.h"

#define DOD_AVX512 __attribute__((target("avx512f")))
// For the count's helper lambdas: out of line, their captured state would
// round-trip through memory on every vector.
#define DOD_AVX512_INLINE __attribute__((target("avx512f"), always_inline))

namespace dod {
namespace {

static_assert(kSoaWidth == 8, "a block is one 8-lane zmm vector");
static_assert(kShadowWidth == 16, "a shadow vector is one 16-lane zmm");

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
DOD_AVX512 int DoubleCountT(const SoABlock& pts, size_t begin, size_t end,
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

// ---- Float filter over shadow lanes -------------------------------------
//
// On a buffer with shadow lanes the count computes a float squared distance
// S_F for 16 slots per vector and compares it with two thresholds: a slot
// with S_F <= lo is surely within r of the double result S_D the scalar
// kernel computes, a slot with S_F > hi surely outside it. An 8-slot block
// holding a slot in between (or a NaN) is recomputed from its double lanes.
//
// Derivation. u = 2^-53 and v = 2^-24 are the unit roundoffs of double and
// float, n = dims + 2, R = sq_radius, o the buffer's origin and E its
// extent. For a slot x and the query q, t = q - x exactly (per dimension)
// and S = |t|^2.
//
//  - Double: each term of S_D goes through n roundings (the subtraction
//    twice through the square, the multiply, dims - 1 adds of non-negative
//    terms), so S (1 - u)^n <= S_D <= S (1 + u)^n.
//  - Float inputs: the lanes hold a_x = fl32(fl64(x - o)) and the query is
//    shifted the same way. Each is off the exact shift y by at most
//    |fl64(y)| (2^-24 + 2^-53)(1 + 2^-24) = eta |fl64(y)| (plus 2^-150 if
//    it underflows). With |fl64(x - o)| <= E and |fl64(q - o)| <= Q,
//    a_q - a_x = t_d + e_d with |e_d| <= (E + Q) eta, at most 2 E eta for
//    a query within the extent (Q <= E, as every query a detector takes
//    from its own segment is; the code then uses 2E). Over all dimensions
//    |e| <= sigma = (E + Q) eta sqrt(dims).
//  - Float arithmetic: the subtraction, the square and the dims - 1 adds
//    round n times per term again (a subnormal difference or sum is exact,
//    a subnormal square is off by at most 2^-150), and |t + e| lies in
//    [sqrt(S) - sigma, sqrt(S) + sigma], so
//    (1 - v)^n (sqrt(S) - sigma)^2 <= S_F <= (1 + v)^n (sqrt(S) + sigma)^2.
//  - lo = (1 - v)^n (s_in - sigma)^2 with s_in = sqrt(R / (1 + u)^n):
//    S_F <= lo gives sqrt(S) <= s_in, so S_D <= S (1 + u)^n <= R.
//  - hi = (1 + v)^n (s_out + sigma)^2 with s_out = sqrt(R / (1 - u)^n):
//    S_D <= R gives sqrt(S) <= s_out, so S_F <= hi; S_F > hi proves
//    S_D > R.
//
// The code rounds each factor outward ((1 + u)^n <= 1 + 2nu,
// (1 - u)^n >= 1 - nu, the same for v) and then widens lo and hi by the
// relative kShadowMargin, which covers the double arithmetic below, the
// rounding of lo and hi to float (2^-24) and the underflow terms: R is
// kept in [2^-100, 2^100], where they stay below 2^-45 R and where every
// float value on a path with S_D <= R is far below FLT_MAX (an infinite
// S_F, as at a pad slot, is rightly "outside"). A query whose shift does
// not fit a float, or a band hi - lo wider than kMaxShadowBand R, sends
// the whole call to the double path.

// Widest band hi - lo, as a fraction of R, that takes the float path: the
// band grows with (E + Q) / r, and with a sixteenth of r² undecided too
// many blocks would be computed twice.
constexpr double kMaxShadowBand = 1.0 / 16;

// Relative widening of lo and hi (see above).
constexpr double kShadowMargin = 0x1p-20;

constexpr double kMinShadowSqRadius = 0x1p-100;
constexpr double kMaxShadowSqRadius = 0x1p+100;

struct ShadowFilter {
  float q[kMaxDimensions];  // fl32(fl64(q - o))
  float lo;
  float hi;
};

// lo and hi for R = sq_radius and E + Q <= `bound`; false when the call
// takes the double path.
template <int kDims>
bool ShadowThresholds(double sq_radius, double bound, float* lo, float* hi) {
  if (!(sq_radius >= kMinShadowSqRadius && sq_radius <= kMaxShadowSqRadius)) {
    return false;
  }
  constexpr double kU = 0x1p-53;
  constexpr double kV = 0x1p-24;
  constexpr double kN = kDims + 2;
  constexpr double kEta = (kV + kU) * (1.0 + kV);
  const double root = std::sqrt(sq_radius);
  const double s_in = root * (1.0 - 2.0 * kN * kU);
  const double s_out = root * (1.0 + 2.0 * kN * kU);
  const double sigma = bound * kEta * std::sqrt(static_cast<double>(kDims));
  if (!(sigma < s_in)) return false;
  const double low = (1.0 - kN * kV) * (s_in - sigma) * (s_in - sigma) *
                     (1.0 - kShadowMargin);
  const double high = (1.0 + 2.0 * kN * kV) * (s_out + sigma) *
                      (s_out + sigma) * (1.0 + kShadowMargin);
  if (!(high - low <= kMaxShadowBand * sq_radius)) return false;
  *lo = static_cast<float>(low);
  *hi = static_cast<float>(high);
  return true;
}

// The last thresholds computed on this thread, per dimensionality: every
// query a detector sweeps comes from the buffer itself (Q <= E), so its
// thresholds depend on R and E alone and repeat across a cell's sweeps.
struct ThresholdCache {
  double sq_radius = -1.0;
  double bound = -1.0;
  bool usable = false;
  float lo = 0.0f;
  float hi = 0.0f;
};
template <int kDims>
thread_local ThresholdCache t_thresholds;

// Fills `filter` for query `q`; false when the call takes the double path.
template <int kDims>
bool PrepareShadowFilter(const SoABlock& pts, const double* q,
                         double sq_radius, ShadowFilter* filter) {
  const double* origin = pts.shadow_origin();
  double query_extent = 0.0;
  for (int d = 0; d < kDims; ++d) {
    const double shifted = q[d] - origin[d];
    const double magnitude = std::fabs(shifted);
    if (!(magnitude <= FLT_MAX)) return false;  // also NaN
    query_extent = std::max(query_extent, magnitude);
    filter->q[d] = static_cast<float>(shifted);
  }
  const double extent = pts.shadow_extent();
  const double bound = query_extent <= extent ? 2.0 * extent
                                              : extent + query_extent;
  ThresholdCache& cache = t_thresholds<kDims>;
  if (cache.sq_radius != sq_radius || cache.bound != bound) {
    cache.sq_radius = sq_radius;
    cache.bound = bound;
    cache.usable =
        ShadowThresholds<kDims>(sq_radius, bound, &cache.lo, &cache.hi);
  }
  filter->lo = cache.lo;
  filter->hi = cache.hi;
  return cache.usable;
}

// Float squared distances from the broadcast shifted query `qf` to the
// kShadowWidth slots of shadow vector `vec`, in the double path's order.
template <int kDims>
DOD_AVX512 inline __m512 ShadowSquaredDistances(const SoABlock& pts,
                                                size_t vec,
                                                const __m512* qf) {
  const float* lane = pts.ShadowLane(vec, 0);
  __m512 diff = _mm512_sub_ps(qf[0], _mm512_loadu_ps(lane));
  __m512 acc = _mm512_mul_ps(diff, diff);
  for (int d = 1; d < kDims; ++d) {
    lane += kShadowWidth;
    diff = _mm512_sub_ps(qf[d], _mm512_loadu_ps(lane));
    acc = _mm512_add_ps(acc, _mm512_mul_ps(diff, diff));
  }
  return acc;
}

// Bits [lo, hi) of a shadow vector's slot mask.
inline __mmask16 VectorRange(size_t lo, size_t hi) {
  return static_cast<__mmask16>(((1u << hi) - 1u) & ~((1u << lo) - 1u));
}

// The double path's schedule over 16-slot vectors. An interior vector
// costs one "maybe within" compare and one branch when none of its slots
// can be within r, the common case of a sparse sweep; when all of its
// candidates are surely within, they count at once unless the cap is in
// reach. Any other vector (a band slot, the cap in reach, the head, the
// tail or the skip slot's vector) goes through `visit`, which adds its low
// block, checks the cap, and only then adds its high block and checks
// again — the cap still falls at a block end, so counts and pairs equal
// the double path's.
template <int kDims>
DOD_AVX512 int ShadowCountT(const SoABlock& pts, size_t begin, size_t end,
                            const double* q, double sq_radius,
                            size_t skip_slot, int cap, uint64_t* pairs,
                            const ShadowFilter& filter) {
  __m512d qv[kDims];
  BroadcastQuery<kDims>(q, qv);
  const __m512d r = _mm512_set1_pd(sq_radius);
  __m512 qf[kDims];
  for (int d = 0; d < kDims; ++d) qf[d] = _mm512_set1_ps(filter.q[d]);
  const __m512 lo = _mm512_set1_ps(filter.lo);
  const __m512 hi = _mm512_set1_ps(filter.hi);
  const int stop = cap < 0 ? std::numeric_limits<int>::max() : cap;
  const size_t skip_vec = skip_slot / kShadowWidth;
  const __mmask16 skip_out =
      static_cast<__mmask16>(~(1u << (skip_slot % kShadowWidth)));
  // Slots of vector `v` that may count: all but the skip slot.
  const auto keep = [skip_vec, skip_out](size_t v) {
    return v == skip_vec ? skip_out : static_cast<__mmask16>(0xFFFF);
  };
  int count = 0;
  size_t scan_end = end;
  // Adds the hits among the `valid` slots of vector `v`, whose float
  // squared distances are `d2`; true once the cap is reached, with
  // scan_end at the end of the block that reached it.
  const auto visit = [&](size_t v, __m512 d2,
                         __mmask16 valid) DOD_AVX512_INLINE {
    const __mmask16 maybe =
        _mm512_mask_cmp_ps_mask(valid, d2, hi, _CMP_NGT_UQ);
    if (maybe == 0) return false;
    unsigned hits = _mm512_mask_cmp_ps_mask(maybe, d2, lo, _CMP_LE_OQ);
    if (hits != maybe) {
      // A slot in the band (or a NaN): its block's verdicts come from the
      // double lanes.
      for (unsigned half = 0; half < 2; ++half) {
        const unsigned shift = half * kSoaWidth;
        if ((((hits ^ maybe) >> shift) & 0xFFu) == 0) continue;
        const unsigned exact =
            WithinMask<kDims>(pts, 2 * v + half, qv, r) &
            static_cast<__mmask8>(valid >> shift);
        hits = (hits & ~(0xFFu << shift)) | (exact << shift);
      }
    }
    const int low = __builtin_popcount(hits & 0xFFu);
    if (count + low >= stop) {
      count += low;
      scan_end = std::min(end, (2 * v + 1) * kSoaWidth);
      return true;
    }
    count += __builtin_popcount(hits);
    if (count >= stop) {
      scan_end = std::min(end, (2 * v + 2) * kSoaWidth);
      return true;
    }
    return false;
  };
  size_t v = begin / kShadowWidth;
  const size_t last = (end + kShadowWidth - 1) / kShadowWidth;
  bool capped = false;
  if (begin % kShadowWidth != 0 && v < last) {
    const __mmask16 range = VectorRange(
        begin % kShadowWidth, std::min(end - v * kShadowWidth, kShadowWidth));
    capped = visit(v, ShadowSquaredDistances<kDims>(pts, v, qf),
                   range & keep(v));
    ++v;
  }
  // Whole vectors from v up to `to`, none of them the skip vector; true
  // once the cap is reached.
  const auto sweep = [&](size_t to) DOD_AVX512_INLINE {
    for (; v < to; ++v) {
      const __m512 d2 = ShadowSquaredDistances<kDims>(pts, v, qf);
      const __mmask16 maybe = _mm512_cmp_ps_mask(d2, hi, _CMP_NGT_UQ);
      if (maybe == 0) continue;
      const __mmask16 sure = _mm512_mask_cmp_ps_mask(maybe, d2, lo,
                                                     _CMP_LE_OQ);
      const int hits = __builtin_popcount(static_cast<unsigned>(sure));
      if (sure == maybe && count + hits < stop) {
        count += hits;
      } else if (visit(v, d2, 0xFFFF)) {
        return true;
      }
    }
    return false;
  };
  const size_t full_end = end / kShadowWidth;
  if (!capped && skip_vec >= v && skip_vec < full_end) {
    capped = sweep(skip_vec) ||
             visit(v, ShadowSquaredDistances<kDims>(pts, v, qf), skip_out);
    ++v;
  }
  if (!capped) capped = sweep(full_end);
  if (!capped && v < last) {
    visit(v, ShadowSquaredDistances<kDims>(pts, v, qf),
          VectorRange(0, end - v * kShadowWidth) & keep(v));
  }
  if (pairs != nullptr) {
    *pairs += internal::ScannedPairs(begin, scan_end, skip_slot);
  }
  return count;
}

template <int kDims>
DOD_AVX512 int Avx512CountT(const SoABlock& pts, size_t begin, size_t end,
                            const double* q, double sq_radius,
                            size_t skip_slot, int cap, uint64_t* pairs) {
  ShadowFilter filter;
  if (pts.ShadowCovers(begin, end) &&
      PrepareShadowFilter<kDims>(pts, q, sq_radius, &filter)) {
    return ShadowCountT<kDims>(pts, begin, end, q, sq_radius, skip_slot, cap,
                               pairs, filter);
  }
  return DoubleCountT<kDims>(pts, begin, end, q, sq_radius, skip_slot, cap,
                             pairs);
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

constexpr KernelOps kAvx512Ops = {"avx512", /*reads_shadow=*/true,
                                  Avx512Count, Avx512CountTile};

}  // namespace

namespace internal {
const KernelOps* Avx512KernelOpsOrNull() { return &kAvx512Ops; }
}  // namespace internal

}  // namespace dod

#else  // !DOD_KERNELS_COMPILE_AVX512

namespace dod {
namespace internal {
const KernelOps* Avx512KernelOpsOrNull() { return nullptr; }
}  // namespace internal
}  // namespace dod

#endif  // DOD_KERNELS_COMPILE_AVX512
