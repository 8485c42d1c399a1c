// Copyright 2026 The DOD Authors.
//
// The Cell-Based detector (Knorr & Ng, VLDB'98; Sec. IV-B of the paper).
//
// The domain is hashed into a uniform grid with cell side r / (2·√d), so any
// two points in one cell are at most r/2 apart, and a point in a cell C is
// within r of every point in C's adjacent cells (layer L1). Three prunings
// follow:
//   * red cells:  cnt(C) > k                  → every point in C is inlier;
//   * pink cells: cnt(C ∪ L1) > k             → every point in C is inlier;
//   * quiet neighborhoods: cnt(all cells that could hold a neighbor) ≤ k
//                                              → every point in C is outlier.
// Points in undecided cells are "evaluated individually, in a fashion
// similar to Nested-Loop" (Sec. IV-B): an exact neighbor count against the
// partition, without Nested-Loop's randomized early exit. In 2-d the
// "could hold a neighbor" block is the 7×7 ring structure (49 cells) the
// paper quotes in Lemma 4.2.
//
// The cost is linear in |D| when one of the prunings fires for (almost) all
// cells — exactly the very dense / very sparse extremes — and degrades to
// Nested-Loop-like probing plus indexing overhead in between.

#ifndef DOD_DETECTION_CELL_BASED_H_
#define DOD_DETECTION_CELL_BASED_H_

#include "detection/detector.h"

namespace dod {

// Cell side used by the Cell-Based algorithm: r / (2·sqrt(d)).
double CellBasedCellSide(double radius, int dims);

// Outermost Chebyshev ring (in cells) that can still contain a neighbor:
// floor(2·sqrt(d)) + 1. In 2-d this is 3 (the 7×7 block).
int CellBasedNeighborRings(int dims);

class CellBasedDetector : public Detector {
 public:
  using Detector::DetectOutliers;

  std::string_view name() const override { return "Cell-Based"; }
  AlgorithmKind kind() const override { return AlgorithmKind::kCellBased; }

  // Grids the view in place and probes undecided points against the view's
  // probe segment.
  std::vector<uint32_t> DetectOutliers(const PartitionView& partition,
                                       const DetectionParams& params,
                                       Counters* counters) const override;
};

}  // namespace dod

#endif  // DOD_DETECTION_CELL_BASED_H_
