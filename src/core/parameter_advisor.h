// Copyright 2026 The DOD Authors.
//
// Parameter advisor for the distance-threshold definition. The paper takes
// (r, k) as given inputs; in practice choosing r is the hard part — too
// small flags everything, too large flags nothing. This module suggests r
// from the data: sample points, estimate each sample's k-distance (with a
// density correction for the sampling rate), and pick the quantile that
// makes roughly the requested fraction of points outliers.

#ifndef DOD_CORE_PARAMETER_ADVISOR_H_
#define DOD_CORE_PARAMETER_ADVISOR_H_

#include <cstdint>

#include "common/dataset.h"
#include "detection/detector.h"
#include "kernels/kernel_mode.h"

namespace dod {

struct AdvisorOptions {
  // Neighbor-count threshold k the user intends to run with.
  int min_neighbors = 4;
  // Desired fraction of points reported as outliers (approximate).
  double target_outlier_fraction = 0.01;
  // Sample size used for the estimate.
  size_t sample_size = 2000;
  uint64_t seed = 42;
};

struct ParameterSuggestion {
  DetectionParams params;
  // The sampled k-distance at the chosen quantile, before rate correction.
  double sampled_k_distance = 0.0;
  // Sampling rate used (1.0 when the dataset fits the sample budget).
  double sampling_rate = 1.0;
};

// Suggests r for the given k and target outlier fraction.
//
// Method: draw a sample S at rate p = |S| / |D|; within S, each point's
// k-distance estimates its (k/p)-distance in D, so the k-distance in D is
// recovered by the uniform-density scaling r_D ≈ r_S · p^(1/dims). The
// suggested r is the (1 − target_fraction) quantile of the corrected
// k-distances: points whose true k-distance exceeds r — roughly the target
// fraction — become outliers.
ParameterSuggestion SuggestParameters(const Dataset& data,
                                      const AdvisorOptions& options);

// Exact distance from point `id` to its k-th nearest other point (an O(n)
// scan); infinity when the dataset holds fewer than k other points. The
// value is bit-identical in every kernel mode.
double KDistance(const Dataset& data, PointId id, int k,
                 KernelMode kernels = KernelMode::kAuto);

}  // namespace dod

#endif  // DOD_CORE_PARAMETER_ADVISOR_H_
