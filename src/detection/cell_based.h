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
//
// Two indexes answer the block counts (detection/grid.h), with the same
// cell addresses and one decision rule. A view whose bounding box holds
// few cells per point (CellCountTable::Accepts) is counted into a flat
// summed-area table straight from its probe lanes: every block count is
// 2^d lookups, and each cell holding core points is decided once. Any
// other view is indexed by the hashed SparseGrid. Either way the verdicts,
// the undecided points and every cell_based.* counter are the same.

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

  // The index the prunings read. kAuto takes the summed-area table when
  // the view's box fits it and the hashed grid otherwise; kHashed takes the
  // hashed grid for every box, the oracle the table is tested against.
  enum class Index { kAuto, kHashed };

  explicit CellBasedDetector(Index index = Index::kAuto) : index_(index) {}

  std::string_view name() const override { return "Cell-Based"; }
  AlgorithmKind kind() const override { return AlgorithmKind::kCellBased; }

  // Indexes the view's cells and probes undecided points against the
  // view's probe segment.
  std::vector<uint32_t> DetectOutliers(const PartitionView& partition,
                                       const DetectionParams& params,
                                       Counters* counters) const override;

 private:
  Index index_;
};

}  // namespace dod

#endif  // DOD_DETECTION_CELL_BASED_H_
