// Copyright 2026 The DOD Authors.
//
// Scalar (reference) and blocked (portable batched) kernel implementations
// plus the runtime dispatch table. The AVX2 specialization lives in
// distance_kernels_avx2.cc.

#include "kernels/distance_kernels.h"

#include <algorithm>
#include <limits>

#include "kernels/dims_dispatch.h"

namespace dod {
namespace internal {
// Defined in distance_kernels_avx2.cc; nullptr when not compiled in.
const KernelOps* Avx2KernelOpsOrNull();
}  // namespace internal

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- scalar: one pair at a time, per-pair early exit --------------------

inline double ScalarSquaredDistance(const SoABlock& pts, size_t slot,
                                    const double* q, int dims) {
  const size_t block = slot / kSoaWidth;
  const size_t s = slot % kSoaWidth;
  double sum = 0.0;
  for (int d = 0; d < dims; ++d) {
    const double diff = q[d] - pts.Lane(block, d)[s];
    sum += diff * diff;
  }
  return sum;
}

int ScalarCount(const SoABlock& pts, size_t begin, size_t end,
                const double* q, double sq_radius, size_t skip_slot, int cap,
                uint64_t* pairs) {
  if (cap == 0) return 0;
  const int dims = pts.dims();
  uint64_t evals = 0;
  int count = 0;
  for (size_t slot = begin; slot < end; ++slot) {
    if (slot == skip_slot) continue;
    ++evals;
    if (ScalarSquaredDistance(pts, slot, q, dims) <= sq_radius) {
      ++count;
      if (cap >= 0 && count >= cap) break;
    }
  }
  if (pairs != nullptr) *pairs += evals;
  return count;
}

void ScalarRangeMask(const SoABlock& pts, const double* q, double sq_radius,
                     uint32_t skip_id, std::vector<uint32_t>* out,
                     uint64_t* pairs) {
  const int dims = pts.dims();
  uint64_t evals = 0;
  for (size_t slot = 0; slot < pts.size(); ++slot) {
    const uint32_t id = pts.IdAt(slot);
    if (id == skip_id) continue;
    ++evals;
    if (ScalarSquaredDistance(pts, slot, q, dims) <= sq_radius) {
      out->push_back(id);
    }
  }
  if (pairs != nullptr) *pairs += evals;
}

double ScalarMin(const SoABlock& pts, const double* q, uint64_t* pairs) {
  const int dims = pts.dims();
  double best = kInf;
  for (size_t slot = 0; slot < pts.size(); ++slot) {
    const double d2 = ScalarSquaredDistance(pts, slot, q, dims);
    if (d2 < best) best = d2;  // NaN compares false: excluded
  }
  if (pairs != nullptr) *pairs += pts.size();
  return best;
}

void ScalarDists(const SoABlock& pts, const double* q, double* out,
                 uint64_t* pairs) {
  const int dims = pts.dims();
  for (size_t slot = 0; slot < pts.size(); ++slot) {
    out[slot] = ScalarSquaredDistance(pts, slot, q, dims);
  }
  if (pairs != nullptr) *pairs += pts.size();
}

// ---- blocked: whole kSoaWidth-wide blocks, block-granular early exit ----
//
// The inner loops run over a fixed-width local accumulator so the compiler
// can vectorize them for whatever the baseline ISA offers; arithmetic per
// slot is identical to the scalar kernel (same order, no contraction — the
// library is built with -ffp-contract=off).

struct BlockAcc {
  double d2[kSoaWidth];
};

// Dimensionality is a compile-time constant in the hot loops: kMaxDimensions
// is tiny, so every dims value gets its own instantiation (dispatched once
// per call, below) where the d-loop fully unrolls and the accumulator never
// round-trips through the stack between dimension passes.
template <int kDims>
inline void BlockSquaredDistances(const SoABlock& pts, size_t block,
                                  const double* q, BlockAcc* acc) {
  for (size_t s = 0; s < kSoaWidth; ++s) acc->d2[s] = 0.0;
  for (int d = 0; d < kDims; ++d) {
    const double* lane = pts.Lane(block, d);
    const double qd = q[d];
    for (size_t s = 0; s < kSoaWidth; ++s) {
      const double diff = qd - lane[s];
      acc->d2[s] += diff * diff;
    }
  }
}

template <int kDims>
int BlockedCountT(const SoABlock& pts, size_t begin, size_t end,
                  const double* q, double sq_radius, size_t skip_slot,
                  int cap, uint64_t* pairs) {
  const int stop = cap < 0 ? std::numeric_limits<int>::max() : cap;
  int count = 0;

  // Partial block: per-slot branchless compare+count over [lo, hi). Pure so
  // the main loop's accumulators stay in registers.
  const auto partial = [&pts, q, sq_radius, skip_slot](size_t b, size_t lo,
                                                       size_t hi) {
    BlockAcc acc;
    BlockSquaredDistances<kDims>(pts, b, q, &acc);
    int within = 0;
    for (size_t s = lo; s < hi; ++s) {
      within +=
          b * kSoaWidth + s != skip_slot && acc.d2[s] <= sq_radius ? 1 : 0;
    }
    return within;
  };

  // `b` is the next block to scan; the scan ends at min(end, b * width).
  size_t b = begin / kSoaWidth;
  const size_t last = (end + kSoaWidth - 1) / kSoaWidth;
  if (begin % kSoaWidth != 0 && b < last) {
    count += partial(b, begin % kSoaWidth,
                     std::min(end - b * kSoaWidth, kSoaWidth));
    ++b;
  }

  // Full blocks: a fixed-trip-count loop the vectorizer keeps wide, with no
  // boundary logic inside. The skip slot sits in at most one block, where
  // a rarely-taken scalar branch takes it back out. The cap is checked
  // after every block, as avx2 checks it, so both batched paths evaluate
  // the same pairs.
  const size_t skip_block = skip_slot / kSoaWidth;
  const size_t full_end = end / kSoaWidth;
  for (; b < full_end && count < stop; ++b) {
    const double* lanes = pts.Lane(b, 0);
    int within = 0;
    for (size_t s = 0; s < kSoaWidth; ++s) {
      double sum = 0.0;
      for (int d = 0; d < kDims; ++d) {
        const double diff = q[d] - lanes[d * kSoaWidth + s];
        sum += diff * diff;
      }
      within += sum <= sq_radius ? 1 : 0;
    }
    if (b == skip_block &&
        ScalarSquaredDistance(pts, skip_slot, q, kDims) <= sq_radius) {
      --within;
    }
    count += within;
  }

  // Tail partial block (end not on a block boundary).
  if (b < last && count < stop) {
    count += partial(b, 0, end - b * kSoaWidth);
    ++b;
  }
  if (pairs != nullptr) {
    *pairs += internal::ScannedPairs(begin, std::min(end, b * kSoaWidth),
                                     skip_slot);
  }
  return count;
}

int BlockedCount(const SoABlock& pts, size_t begin, size_t end,
                 const double* q, double sq_radius, size_t skip_slot, int cap,
                 uint64_t* pairs) {
  if (cap == 0) return 0;
  DOD_DISPATCH_DIMS(BlockedCountT, pts.dims(), pts, begin, end, q, sq_radius,
                    skip_slot, cap, pairs);
}

template <int kDims>
void BlockedRangeMaskT(const SoABlock& pts, const double* q, double sq_radius,
                       uint32_t skip_id, std::vector<uint32_t>* out,
                       uint64_t* pairs) {
  uint64_t evals = 0;
  BlockAcc acc;
  for (size_t b = 0; b < pts.num_blocks(); ++b) {
    const size_t base = b * kSoaWidth;
    const size_t hi = std::min(pts.size() - base, kSoaWidth);
    BlockSquaredDistances<kDims>(pts, b, q, &acc);
    const uint32_t* ids = pts.Ids(b);
    for (size_t s = 0; s < hi; ++s) {
      if (ids[s] == skip_id) continue;
      ++evals;
      if (acc.d2[s] <= sq_radius) out->push_back(ids[s]);
    }
  }
  if (pairs != nullptr) *pairs += evals;
}

void BlockedRangeMask(const SoABlock& pts, const double* q, double sq_radius,
                      uint32_t skip_id, std::vector<uint32_t>* out,
                      uint64_t* pairs) {
  DOD_DISPATCH_DIMS(BlockedRangeMaskT, pts.dims(), pts, q, sq_radius, skip_id,
                    out, pairs);
}

template <int kDims>
double BlockedMinT(const SoABlock& pts, const double* q, uint64_t* pairs) {
  double best = kInf;
  BlockAcc acc;
  for (size_t b = 0; b < pts.num_blocks(); ++b) {
    BlockSquaredDistances<kDims>(pts, b, q, &acc);
    // Pad slots hold +infinity coordinates: their d2 is +infinity (or NaN
    // for non-finite queries), so the min skips them like the scalar path.
    for (size_t s = 0; s < kSoaWidth; ++s) {
      if (acc.d2[s] < best) best = acc.d2[s];
    }
  }
  if (pairs != nullptr) *pairs += pts.size();
  return best;
}

double BlockedMin(const SoABlock& pts, const double* q, uint64_t* pairs) {
  DOD_DISPATCH_DIMS(BlockedMinT, pts.dims(), pts, q, pairs);
}

template <int kDims>
void BlockedDistsT(const SoABlock& pts, const double* q, double* out,
                   uint64_t* pairs) {
  BlockAcc acc;
  for (size_t b = 0; b < pts.num_blocks(); ++b) {
    const size_t base = b * kSoaWidth;
    const size_t hi = std::min(pts.size() - base, kSoaWidth);
    BlockSquaredDistances<kDims>(pts, b, q, &acc);
    for (size_t s = 0; s < hi; ++s) out[base + s] = acc.d2[s];
  }
  if (pairs != nullptr) *pairs += pts.size();
}

void BlockedDists(const SoABlock& pts, const double* q, double* out,
                  uint64_t* pairs) {
  DOD_DISPATCH_DIMS(BlockedDistsT, pts.dims(), pts, q, out, pairs);
}

// Tiles: every (query, slot) pair of the tile once, per-pair arithmetic
// identical to the single-query counts. The candidate segment stays hot
// across queries — it is the small side of the tile.
void ScalarCountTile(const SoABlock& pts, size_t begin, size_t end,
                     const double* queries, size_t num_queries,
                     double sq_radius, uint32_t* row_counts,
                     uint32_t* col_counts) {
  const int dims = pts.dims();
  for (size_t i = 0; i < num_queries; ++i) {
    const double* q = queries + i * dims;
    uint32_t within = 0;
    for (size_t slot = begin; slot < end; ++slot) {
      if (ScalarSquaredDistance(pts, slot, q, dims) <= sq_radius) {
        ++within;
        if (col_counts != nullptr) ++col_counts[slot - begin];
      }
    }
    row_counts[i] += within;
  }
}

// Block-major, like avx2's tile: each block meets every query of the
// tile while its column hits gather in a local array.
template <int kDims>
void BlockedCountTileT(const SoABlock& pts, size_t begin, size_t end,
                       const double* queries, size_t num_queries,
                       double sq_radius, uint32_t* row_counts,
                       uint32_t* col_counts) {
  const size_t first = begin / kSoaWidth;
  const size_t last = (end + kSoaWidth - 1) / kSoaWidth;
  BlockAcc acc;
  for (size_t b = first; b < last; ++b) {
    const size_t base = b * kSoaWidth;
    const size_t lo = b == first ? begin - base : 0;
    const size_t hi = std::min(end - base, kSoaWidth);
    uint32_t hits[kSoaWidth] = {};
    for (size_t i = 0; i < num_queries; ++i) {
      BlockSquaredDistances<kDims>(pts, b, queries + i * kDims, &acc);
      uint32_t within = 0;
      for (size_t s = lo; s < hi; ++s) {
        const uint32_t hit = acc.d2[s] <= sq_radius ? 1u : 0u;
        within += hit;
        hits[s] += hit;
      }
      row_counts[i] += within;
    }
    if (col_counts != nullptr) {
      for (size_t s = lo; s < hi; ++s) col_counts[base + s - begin] += hits[s];
    }
  }
}

void BlockedCountTile(const SoABlock& pts, size_t begin, size_t end,
                      const double* queries, size_t num_queries,
                      double sq_radius, uint32_t* row_counts,
                      uint32_t* col_counts) {
  DOD_DISPATCH_DIMS(BlockedCountTileT, pts.dims(), pts, begin, end, queries,
                    num_queries, sq_radius, row_counts, col_counts);
}

constexpr KernelOps kScalarOps = {"scalar", ScalarCount, ScalarRangeMask,
                                  ScalarMin, ScalarDists, ScalarCountTile};
constexpr KernelOps kBlockedOps = {"blocked", BlockedCount, BlockedRangeMask,
                                   BlockedMin, BlockedDists,
                                   BlockedCountTile};

}  // namespace

const char* KernelModeName(KernelMode mode) {
  switch (mode) {
    case KernelMode::kScalar:
      return "scalar";
    case KernelMode::kAuto:
      return "auto";
  }
  return "unknown";
}

bool ParseKernelMode(std::string_view name, KernelMode* mode) {
  if (name == "scalar") {
    *mode = KernelMode::kScalar;
    return true;
  }
  if (name == "auto") {
    *mode = KernelMode::kAuto;
    return true;
  }
  return false;
}

bool Avx2KernelsAvailable() {
  static const bool available = [] {
    if (internal::Avx2KernelOpsOrNull() == nullptr) return false;
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
  }();
  return available;
}

const KernelOps& GetKernelOps(KernelMode mode) {
  if (mode == KernelMode::kScalar) return kScalarOps;
  if (Avx2KernelsAvailable()) return *internal::Avx2KernelOpsOrNull();
  return kBlockedOps;
}

const KernelOps* GetKernelOpsByName(std::string_view impl) {
  if (impl == "scalar") return &kScalarOps;
  if (impl == "blocked") return &kBlockedOps;
  if (impl == "avx2") {
    return Avx2KernelsAvailable() ? internal::Avx2KernelOpsOrNull() : nullptr;
  }
  return nullptr;
}

}  // namespace dod
