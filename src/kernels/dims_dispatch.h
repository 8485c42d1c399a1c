// Copyright 2026 The DOD Authors.
//
// Internal to the kernels library: the one per-dims dispatch both kernel
// tables (distance_kernels.cc, distance_kernels_avx2.cc) use to enter their
// `template <int kDims>` bodies, where the dimension loop fully unrolls.

#ifndef DOD_KERNELS_DIMS_DISPATCH_H_
#define DOD_KERNELS_DIMS_DISPATCH_H_

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

#endif  // DOD_KERNELS_DIMS_DISPATCH_H_
