// Copyright 2026 The DOD Authors.
//
// Internal to the kernels library: the one per-dims dispatch both kernel
// tables (distance_kernels.cc, distance_kernels_avx2.cc) use to enter their
// `template <int kDims>` bodies, where the dimension loop fully unrolls,
// and the pair accounting both batched counts share.

#ifndef DOD_KERNELS_DIMS_DISPATCH_H_
#define DOD_KERNELS_DIMS_DISPATCH_H_

#include <cstddef>
#include <cstdint>

#include "common/point.h"

static_assert(dod::kMaxDimensions == 8,
              "DOD_DISPATCH_DIMS enumerates dims 1..8");

// Expands to `return fn<dims>(...)` for the runtime `dims`.
#define DOD_DISPATCH_DIMS(fn, dims, ...)  \
  switch (dims) {                         \
    case 1: return fn<1>(__VA_ARGS__);    \
    case 2: return fn<2>(__VA_ARGS__);    \
    case 3: return fn<3>(__VA_ARGS__);    \
    case 4: return fn<4>(__VA_ARGS__);    \
    case 5: return fn<5>(__VA_ARGS__);    \
    case 6: return fn<6>(__VA_ARGS__);    \
    case 7: return fn<7>(__VA_ARGS__);    \
    default: return fn<8>(__VA_ARGS__);   \
  }

namespace dod {
namespace internal {

// Pairs a batched count evaluated: the slots of [begin, scanned_end), less
// the skip slot when it lies there.
inline uint64_t ScannedPairs(size_t begin, size_t scanned_end,
                             size_t skip_slot) {
  return scanned_end - begin -
         (skip_slot >= begin && skip_slot < scanned_end ? 1 : 0);
}

}  // namespace internal
}  // namespace dod

#endif  // DOD_KERNELS_DIMS_DISPATCH_H_
