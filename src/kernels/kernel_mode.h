// Copyright 2026 The DOD Authors.
//
// Kernel selection knob. `kAuto` picks the fastest batched implementation
// the hardware supports (AVX-512, else AVX2, when compiled in and probed at
// runtime, otherwise the portable blocked kernel); `kScalar` forces the
// one-pair-at-a-time reference path. Every implementation returns
// bit-identical verdicts — the knob is an escape hatch and an A/B lever,
// never a correctness trade.

#ifndef DOD_KERNELS_KERNEL_MODE_H_
#define DOD_KERNELS_KERNEL_MODE_H_

#include <string_view>

namespace dod {

enum class KernelMode {
  kScalar,  // per-pair reference kernels
  kAuto,    // best available batched kernels (blocked, AVX2 or AVX-512)
};

const char* KernelModeName(KernelMode mode);

// Parses "scalar" / "auto". Returns false on unknown names.
bool ParseKernelMode(std::string_view name, KernelMode* mode);

}  // namespace dod

#endif  // DOD_KERNELS_KERNEL_MODE_H_
