// Copyright 2026 The DOD Authors.
//
// Multi-bin packing for reducer allocation (Sec. V-A, step 3): divide a set
// of N partition costs into K subsets with sums as equal as possible. The
// problem is NP-complete; the paper adopts a polynomial-time approximation
// (Lemaire, Finke, Brauner 2006). We provide three policies:
//
//  * kRoundRobin — index-order striping; the no-information baseline that
//    Hadoop's default partitioner realizes.
//  * kLpt        — Longest Processing Time greedy (4/3-approximation).
//  * kKarmarkarKarp — k-way largest differencing; typically the best
//    polynomial heuristic and our default for DOD's allocation plan.

#ifndef DOD_ALLOC_BIN_PACKING_H_
#define DOD_ALLOC_BIN_PACKING_H_

#include <cstdint>
#include <vector>

namespace dod {

enum class PackingPolicy {
  kRoundRobin,
  kLpt,
  kKarmarkarKarp,
};

const char* PackingPolicyName(PackingPolicy policy);

struct PackingResult {
  // bin_of[i] = bin index of item i, in [0, num_bins).
  std::vector<int> bin_of;
  // Total weight per bin.
  std::vector<double> bin_loads;

  double Makespan() const;
};

// Packs `weights` into `num_bins` bins under `policy`. `num_bins` must be
// >= 1; empty input yields empty bins.
PackingResult PackBins(const std::vector<double>& weights, int num_bins,
                       PackingPolicy policy);

}  // namespace dod

#endif  // DOD_ALLOC_BIN_PACKING_H_
