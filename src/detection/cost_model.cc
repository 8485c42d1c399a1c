// Copyright 2026 The DOD Authors.

#include "detection/cost_model.h"

#include <algorithm>
#include <cmath>

#include "detection/cell_based.h"

namespace dod {

double BallVolume(double radius, int dims) {
  const double d = static_cast<double>(dims);
  return std::pow(M_PI, d / 2.0) / std::tgamma(d / 2.0 + 1.0) *
         std::pow(radius, d);
}

double NestedLoopCost(const PartitionStats& stats,
                      const DetectionParams& params) {
  const double n = static_cast<double>(stats.cardinality);
  if (n <= 1.0) return n;
  const double k = static_cast<double>(params.min_neighbors);

  // Probability that a random probe is a neighbor: μ = A(p) / A(D),
  // clamped to [.., 1] for partitions smaller than the neighborhood ball.
  double mu = 1.0;
  if (stats.area > 0.0) {
    mu = std::min(1.0, BallVolume(params.radius, stats.dims) / stats.area);
  }
  // Expected probes to find k neighbors; a point cannot probe more than the
  // n-1 others (the outlier / not-enough-neighbors regime).
  const double per_point = std::min(k / mu, n - 1.0);
  return n * per_point;
}

bool CellBasedDenseRegime(const PartitionStats& stats,
                          const DetectionParams& params) {
  const double side = CellBasedCellSide(params.radius, stats.dims);
  const double block1 = std::pow(3.0 * side, stats.dims);
  return block1 * stats.density() >=
         static_cast<double>(params.min_neighbors);
}

bool CellBasedSparseRegime(const PartitionStats& stats,
                           const DetectionParams& params) {
  const double side = CellBasedCellSide(params.radius, stats.dims);
  const int rings = CellBasedNeighborRings(stats.dims);
  const double block = std::pow((2.0 * rings + 1.0) * side, stats.dims);
  return block * stats.density() < static_cast<double>(params.min_neighbors);
}

double CellBasedCost(const PartitionStats& stats,
                     const DetectionParams& params) {
  const double n = static_cast<double>(stats.cardinality);
  if (CellBasedDenseRegime(stats, params) ||
      CellBasedSparseRegime(stats, params)) {
    return n;
  }
  return n + NestedLoopCost(stats, params);
}

double EstimateCost(AlgorithmKind kind, const PartitionStats& stats,
                    const DetectionParams& params) {
  switch (kind) {
    case AlgorithmKind::kNestedLoop:
      return NestedLoopCost(stats, params);
    case AlgorithmKind::kCellBased:
      return CellBasedCost(stats, params);
    case AlgorithmKind::kBruteForce: {
      const double n = static_cast<double>(stats.cardinality);
      return n * std::max(0.0, n - 1.0);
    }
  }
  return 0.0;
}

bool CellBasedStrongDenseRegime(const PartitionStats& stats,
                                const DetectionParams& params) {
  constexpr double kDenseSafetyFactor = 2.0;
  const double side = CellBasedCellSide(params.radius, stats.dims);
  const double block1 = std::pow(3.0 * side, stats.dims);
  return block1 * stats.density() >=
         kDenseSafetyFactor * static_cast<double>(params.min_neighbors);
}

// Planner cost unit = one distance evaluation. Cell-Based's linear term is
// per-point *indexing* work (grid hash insert plus the L1/L2 block counts),
// which costs roughly this many distance evaluations per point. Measured
// with bench/micro_primitives; only the ratio matters, for mixing NL- and
// CB-assigned partitions in one allocation plan.
constexpr double kCellIndexUnitCost = 25.0;

double PlanningCellBasedCost(const PartitionStats& stats,
                             const DetectionParams& params) {
  const double n = static_cast<double>(stats.cardinality);
  if (CellBasedStrongDenseRegime(stats, params)) {
    return kCellIndexUnitCost * n;
  }
  // The sparse case gets no linear credit at all: the quiet-neighborhood
  // pruning needs point-level uniformity that no sample-resolution check
  // can certify (sub-bucket clumps void it), and a mispredicted "cheap"
  // sparse partition costs a quadratic individual-evaluation pass. Planning
  // conservatively prices every non-strongly-dense partition as
  // index + Nested-Loop; the exact Lemma 4.2 stays in CellBasedCost, and
  // the sparse credit does hold on genuinely uniform data (Fig. 5).
  return kCellIndexUnitCost * n + NestedLoopCost(stats, params);
}

double PlanningCost(AlgorithmKind kind, const PartitionStats& stats,
                    const DetectionParams& params) {
  if (kind == AlgorithmKind::kCellBased) {
    return PlanningCellBasedCost(stats, params);
  }
  return EstimateCost(kind, stats, params);
}

AlgorithmKind SelectAlgorithm(const PartitionStats& stats,
                              const DetectionParams& params) {
  const double nl = NestedLoopCost(stats, params);
  const double cb = PlanningCellBasedCost(stats, params);
  return cb < nl ? AlgorithmKind::kCellBased : AlgorithmKind::kNestedLoop;
}

double RefinedBucketAux(AlgorithmKind kind, double cardinality,
                        double density, const DetectionParams& params,
                        int dims) {
  switch (kind) {
    case AlgorithmKind::kNestedLoop: {
      const double ball = BallVolume(params.radius, dims);
      double hit_fraction = 1.0;
      if (density > 0.0) {
        hit_fraction =
            std::min(1.0, params.min_neighbors / (ball * density));
      }
      return cardinality * hit_fraction;
    }
    case AlgorithmKind::kCellBased: {
      // Only the dense-regime (red/pink) pruning is credited at planning
      // time: it is robust to sub-bucket clumping (clumps only raise local
      // density). The sparse-regime quiet-neighborhood pruning requires the
      // whole 7×7 block around every point to stay under k — any clustering
      // below mini-bucket resolution voids it — so sparse buckets are
      // conservatively planned as individually-evaluated. Even dense
      // buckets keep a small fringe fraction: on non-uniform data a
      // density-gradient boundary always leaves some points unpruned, and
      // each of those costs a full-partition scan.
      constexpr double kFringeFraction = 0.05;
      PartitionStats bucket;
      bucket.dims = dims;
      bucket.area = density > 0.0 ? cardinality / density : 0.0;
      bucket.cardinality = static_cast<size_t>(cardinality + 0.5);
      return CellBasedDenseRegime(bucket, params)
                 ? kFringeFraction * cardinality
                 : cardinality;
    }
    case AlgorithmKind::kBruteForce:
      return cardinality;
  }
  return 0.0;
}

double RefinedRegionCost(AlgorithmKind kind, double cardinality,
                         double aux_sum, const DetectionParams& /*params*/) {
  switch (kind) {
    case AlgorithmKind::kNestedLoop:
      return cardinality * aux_sum;
    case AlgorithmKind::kCellBased:
      return kCellIndexUnitCost * cardinality + cardinality * aux_sum;
    case AlgorithmKind::kBruteForce:
      return cardinality * aux_sum;
  }
  return 0.0;
}

}  // namespace dod
