// Copyright 2026 The DOD Authors.
//
// Theoretical cost models for the centralized detectors (Sec. IV) and the
// density-driven algorithm selector (Corollary 4.3).
//
// Costs are in abstract work units (expected distance evaluations, plus one
// unit per point for indexing in Cell-Based). Only *relative* magnitudes
// matter: they feed the cost-driven partitioner/allocator, whose goal is a
// balanced makespan, and the selector, which compares the two models on the
// same partition.

#ifndef DOD_DETECTION_COST_MODEL_H_
#define DOD_DETECTION_COST_MODEL_H_

#include <cstddef>

#include "detection/detector.h"

namespace dod {

// Volume of the d-dimensional L2 ball of radius r (A(p_i) in Lemma 4.1;
// π·r² in 2-d).
double BallVolume(double radius, int dims);

// Summary of a data partition as seen by the planner: how many points it
// holds and how much domain volume they cover. density() is the paper's
// density measure (Sec. IV-A): cardinality / domain area.
struct PartitionStats {
  size_t cardinality = 0;
  double area = 0.0;
  int dims = 2;

  double density() const {
    return area > 0.0 ? static_cast<double>(cardinality) / area : 0.0;
  }
};

// Lemma 4.1 — expected Nested-Loop cost on a uniformly distributed
// partition: |D| · A(D) · k / A(p), with two physical guards the closed form
// elides: a point probes at most |D|-1 others, and at least k probes are
// needed even when every probe hits.
double NestedLoopCost(const PartitionStats& stats,
                      const DetectionParams& params);

// Lemma 4.2 — Cell-Based cost:
//   (1) dense case  ((9/8)·r²·ρ ≥ k in 2-d):  |D|      (scan + index only)
//   (2) sparse case ((49/8)·r²·ρ < k in 2-d): |D|
//   (3) otherwise:                            |D| + NestedLoopCost.
// The 2-d constants generalize to the volumes of the 3^d and (2L+1)^d cell
// blocks with side r/(2√d), L = floor(2√d)+1.
double CellBasedCost(const PartitionStats& stats,
                     const DetectionParams& params);

// True when the Lemma 4.2 dense-case (1) pruning regime applies.
bool CellBasedDenseRegime(const PartitionStats& stats,
                          const DetectionParams& params);
// True when the Lemma 4.2 sparse-case (2) pruning regime applies.
bool CellBasedSparseRegime(const PartitionStats& stats,
                           const DetectionParams& params);

// True when the dense regime holds with a 2x safety margin
// ((9/8)·r²·ρ ≥ 2k in 2-d). At the exact Lemma 4.2 boundary the pink
// pruning fires for barely half the cells (the block count straddles k);
// planning credits Cell-Based's dense case only when pruning is
// near-certain.
bool CellBasedStrongDenseRegime(const PartitionStats& stats,
                                const DetectionParams& params);

// Cell-Based cost as the planner sees it: linear (the per-point indexing
// price) only in the strong dense regime; everywhere else, sparse regime
// included, indexing plus NestedLoopCost. Lemma 4.2's sparse case assumes
// a uniform partition, and sub-partition clumping voids the
// quiet-neighborhood pruning that no sample-resolution check can certify,
// so planning gives it no credit; the exact Lemma 4.2 stays in
// CellBasedCost.
double PlanningCellBasedCost(const PartitionStats& stats,
                             const DetectionParams& params);

// Planner-facing cost of running `kind` (Nested-Loop and BruteForce match
// EstimateCost; Cell-Based uses PlanningCellBasedCost).
double PlanningCost(AlgorithmKind kind, const PartitionStats& stats,
                    const DetectionParams& params);

// Cost of running `kind` on the partition.
double EstimateCost(AlgorithmKind kind, const PartitionStats& stats,
                    const DetectionParams& params);

// Corollary 4.3 — the cheapest algorithm for the partition: Cell-Based in
// the dense/sparse pruning regimes, Nested-Loop in between.
AlgorithmKind SelectAlgorithm(const PartitionStats& stats,
                              const DetectionParams& params);

// ---------------------------------------------------------------------------
// Mini-bucket-refined cost models.
//
// Lemmas 4.1/4.2 assume a uniformly distributed partition. Real partitions
// produced by bisection mix densities, so the planner evaluates the lemmas
// at *mini-bucket* granularity: each bucket contributes an additive term
// derived from its own density, and the region cost combines the summed
// terms with the region's total cardinality. On a density-uniform region
// this reduces exactly to the plain lemmas — which is why DMT's DSHC
// clusters (density-homogeneous by construction) can use the plain models.
//
//  * Nested-Loop: a point in bucket b needs min(k·n/(V·ρ_b), n) probes
//    (n = region cardinality, V = BallVolume). Summing over buckets:
//    cost = n · Σ_b n_b · min(k/(V·ρ_b), 1)  — the Σ term is the "aux".
//  * Cell-Based: buckets in the dense/sparse pruning regimes cost only
//    their indexing; points of middle-regime buckets are evaluated
//    individually against the whole region: cost = n + n · Σ_b(middle) n_b.
// ---------------------------------------------------------------------------

// Additive per-bucket term for `kind` (see above). `density` is the
// bucket's own density; `cardinality` the bucket's point count.
double RefinedBucketAux(AlgorithmKind kind, double cardinality,
                        double density, const DetectionParams& params,
                        int dims);

// Region cost from the region's total cardinality and summed bucket aux.
double RefinedRegionCost(AlgorithmKind kind, double cardinality,
                         double aux_sum, const DetectionParams& params);

}  // namespace dod

#endif  // DOD_DETECTION_COST_MODEL_H_
