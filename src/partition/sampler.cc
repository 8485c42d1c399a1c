// Copyright 2026 The DOD Authors.

#include "partition/sampler.h"

#include <algorithm>
#include <cmath>

namespace dod {

double EffectiveSamplingRate(const SamplerOptions& options, size_t n) {
  double rate = options.rate;
  if (n > 0) {
    rate = std::max(rate, static_cast<double>(options.min_sample_size) /
                              static_cast<double>(n));
  }
  return std::clamp(rate, 0.0, 1.0);
}

int EffectiveBucketsPerDim(const SamplerOptions& options, size_t n) {
  if (!options.adapt_resolution) return options.buckets_per_dim;
  const double samples = EffectiveSamplingRate(options, n) * n;
  const int target = static_cast<int>(std::sqrt(samples / 10.0));
  return std::clamp(target, std::min(8, options.buckets_per_dim),
                    options.buckets_per_dim);
}

size_t SampleBlockInto(const Dataset& data, const std::vector<PointId>& ids,
                       double rate, Rng& rng, MiniBucketGrid* grid) {
  size_t sampled = 0;
  for (PointId id : ids) {
    if (rng.NextBernoulli(rate)) {
      grid->Add(data[id]);
      ++sampled;
    }
  }
  return sampled;
}

DistributionSketch BuildSketch(const Dataset& data, const Rect& domain,
                               const SamplerOptions& options) {
  const double rate = EffectiveSamplingRate(options, data.size());
  DistributionSketch sketch{
      MiniBucketGrid(domain, EffectiveBucketsPerDim(options, data.size())),
      rate, 0};
  Rng rng(options.seed);
  size_t sampled = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    if (rng.NextBernoulli(rate)) {
      sketch.grid.Add(data[static_cast<PointId>(i)]);
      ++sampled;
    }
  }
  sketch.sample_size = sampled;
  return sketch;
}

}  // namespace dod
