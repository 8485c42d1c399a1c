// Copyright 2026 The DOD Authors.

#include "core/parameter_advisor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/distance.h"
#include "common/random.h"
#include "kernels/distance_kernels.h"
#include "kernels/soa_block.h"

namespace dod {

double KDistance(const Dataset& data, PointId id, int k, KernelMode kernels) {
  DOD_CHECK(k >= 1);
  if (data.size() <= static_cast<size_t>(k)) {
    return std::numeric_limits<double>::infinity();
  }
  SoABlock all_points(data.dims());
  all_points.Assign(data);
  std::vector<double> sq_dist(data.size());
  GetKernelOps(kernels).squared_distances(all_points, data[id],
                                          sq_dist.data(), nullptr);
  sq_dist.erase(sq_dist.begin() + id);
  // sqrt is monotone, so the k-th smallest squared distance gives the
  // k-th smallest distance.
  std::nth_element(sq_dist.begin(), sq_dist.begin() + (k - 1), sq_dist.end());
  return std::sqrt(sq_dist[k - 1]);
}

ParameterSuggestion SuggestParameters(const Dataset& data,
                                      const AdvisorOptions& options) {
  DOD_CHECK(!data.empty());
  DOD_CHECK(options.min_neighbors >= 1);
  DOD_CHECK(options.target_outlier_fraction > 0.0 &&
            options.target_outlier_fraction < 1.0);

  ParameterSuggestion suggestion;
  suggestion.params.min_neighbors = options.min_neighbors;
  suggestion.params.seed = options.seed;

  // Uniform sample (without replacement) of at most sample_size points.
  Rng rng(options.seed);
  Dataset sample(data.dims());
  if (data.size() <= options.sample_size) {
    sample = data;
    suggestion.sampling_rate = 1.0;
  } else {
    std::vector<uint32_t> perm = RandomPermutation(data.size(), rng);
    sample.Reserve(options.sample_size);
    for (size_t i = 0; i < options.sample_size; ++i) {
      sample.Append(data[perm[i]]);
    }
    suggestion.sampling_rate =
        static_cast<double>(options.sample_size) / data.size();
  }

  // k-distance of every sampled point within the sample.
  std::vector<double> k_distances;
  k_distances.reserve(sample.size());
  for (PointId i = 0; i < sample.size(); ++i) {
    const double d = KDistance(sample, i, options.min_neighbors);
    if (std::isfinite(d)) k_distances.push_back(d);
  }
  if (k_distances.empty()) {
    // Fewer points than k: any radius flags everything; report the domain
    // diameter as a defensive default.
    const Rect bounds = data.Bounds();
    suggestion.params.radius = std::max(
        1e-12, Euclidean(bounds.min().data(), bounds.max().data(),
                         data.dims()));
    return suggestion;
  }

  const double quantile = 1.0 - options.target_outlier_fraction;
  const size_t index = std::min(
      k_distances.size() - 1,
      static_cast<size_t>(quantile * (k_distances.size() - 1) + 0.5));
  std::nth_element(k_distances.begin(), k_distances.begin() + index,
                   k_distances.end());
  suggestion.sampled_k_distance = k_distances[index];

  // Density correction: a rate-p sample is p× sparser, so distances shrink
  // by p^(1/d) when mapped back to the full data.
  const double correction =
      std::pow(suggestion.sampling_rate, 1.0 / data.dims());
  suggestion.params.radius =
      std::max(1e-12, suggestion.sampled_k_distance * correction);
  return suggestion;
}

}  // namespace dod
