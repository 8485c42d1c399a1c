// Copyright 2026 The DOD Authors.
//
// Distribution estimation (Sec. V-A, stage 1): a Bernoulli random sample is
// drawn within the map phase — random sampling preserves the distribution of
// the underlying dataset — and aggregated into mini-bucket statistics.

#ifndef DOD_PARTITION_SAMPLER_H_
#define DOD_PARTITION_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "common/dataset.h"
#include "common/random.h"
#include "partition/minibucket.h"

namespace dod {

struct SamplerOptions {
  // Sampling rate Υ; paper default 0.5 %.
  double rate = 0.005;
  // Floor on the expected sample size: the effective rate is raised so at
  // least this many points are sampled (the 0.5 % default assumes the
  // paper's 10^7+ point datasets; a sketch needs a few thousand points to
  // estimate bucket densities at all).
  size_t min_sample_size = 4000;
  // Mini-bucket grid resolution per dimension — an upper bound when
  // `adapt_resolution` is set (the default): the effective resolution
  // targets ~10 samples per occupied bucket, since bucket densities (and
  // hence regime classification) are meaningless below a handful of
  // samples, while a dense city spanning a single bucket cannot be split
  // by any planner.
  int buckets_per_dim = 64;
  bool adapt_resolution = true;
  uint64_t seed = 42;
};

// The rate actually used for a dataset of `n` points: max(rate,
// min_sample_size / n), clamped to [0, 1].
double EffectiveSamplingRate(const SamplerOptions& options, size_t n);

// The per-dimension bucket resolution used for a dataset of `n` points
// (2-d heuristic: sqrt(expected samples / 10), clamped to
// [min(8, buckets_per_dim), buckets_per_dim]; pass-through when
// !adapt_resolution).
int EffectiveBucketsPerDim(const SamplerOptions& options, size_t n);

// Samples the points listed in `ids` from `data` into `grid`, returning the
// number of sampled points. This is the per-map-task unit of work; the
// pipeline runs one call per input block and merges the grids.
size_t SampleBlockInto(const Dataset& data, const std::vector<PointId>& ids,
                       double rate, Rng& rng, MiniBucketGrid* grid);

// Convenience: samples the whole dataset into a fresh sketch over `domain`.
DistributionSketch BuildSketch(const Dataset& data, const Rect& domain,
                               const SamplerOptions& options);

}  // namespace dod

#endif  // DOD_PARTITION_SAMPLER_H_
