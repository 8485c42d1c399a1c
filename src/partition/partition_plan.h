// Copyright 2026 The DOD Authors.
//
// Partition plans (Sec. III-C): a set of m pairwise-disjoint grid cells
// whose union covers the domain space (Def. 3.1), each augmented with an
// r-extension supporting area (Def. 3.3). The plan is the map-side input of
// the DOD framework: every point is routed to exactly one core cell and to
// zero or more cells whose supporting area contains it.

#ifndef DOD_PARTITION_PARTITION_PLAN_H_
#define DOD_PARTITION_PARTITION_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bounds.h"
#include "common/dataset.h"
#include "common/status.h"

namespace dod {

// One partition of the domain space (Def. 3.1). Cells use half-open
// membership [lo, hi) per dimension, closed on the domain's upper boundary,
// so every domain point has exactly one core cell.
struct GridCell {
  uint32_t id = 0;
  Rect bounds;
};

class PartitionPlan {
 public:
  PartitionPlan() = default;

  // `radius` is the outlier distance threshold r used to derive supporting
  // areas. Cell ids are (re)assigned to their index order.
  PartitionPlan(Rect domain, double radius, std::vector<Rect> cell_bounds);

  int dims() const { return domain_.dims(); }
  double radius() const { return radius_; }
  const Rect& domain() const { return domain_; }

  size_t num_cells() const { return cells_.size(); }
  const std::vector<GridCell>& cells() const { return cells_; }
  const GridCell& cell(uint32_t id) const { return cells_[id]; }

  // The r-extension of cell `id` (Def. 3.3), support region including the
  // cell itself. A point p is a *support point* of the cell iff p lies in
  // this rect (closed) but is not a core point of the cell.
  Rect SupportBounds(uint32_t id) const {
    return cells_[id].bounds.Expanded(radius_);
  }

  // True iff `p` is a core point of cell `id`: inside [lo, hi) in every
  // dimension, where a cell face lying on the domain's upper boundary is
  // treated as closed.
  bool ContainsCore(uint32_t id, const double* p) const;

  // Checks the Def. 3.1 structural invariants: at least one cell, pairwise
  // disjoint interiors, and union covering the domain (area check).
  Status Validate() const;

  std::string ToString() const;

 private:
  Rect domain_;
  double radius_ = 0.0;
  std::vector<GridCell> cells_;
};

// Accelerates point → cell routing with a flat uniform bin index over the
// domain ("the AF tree can be leveraged as an index to accelerate the
// process of mapping data points into partitions" — we use an equivalent
// flat spatial index that works for every plan shape).
//
// The router copies what it needs out of the plan: per-cell core bounds,
// closed-upper-face flags and precomputed r-extensions in one flat array,
// and the candidate cells of every bin as one CSR array in ascending cell
// id. Each test is the same double comparison PartitionPlan::ContainsCore
// and SupportBounds(id).Contains make, so routing answers are identical.
class PartitionRouter {
 public:
  explicit PartitionRouter(const PartitionPlan& plan);

  // Core cell of `p`. Aborts if the plan does not cover `p` (Validate()
  // guards against this).
  uint32_t RouteCore(const double* p) const;

  // Appends the ids of every cell for which `p` is a support point
  // (Def. 3.2 realized via the Def. 3.3 superset): p inside the cell's
  // r-extension but not a core point of the cell. Ids come in ascending
  // order.
  void RouteSupport(const double* p, std::vector<uint32_t>* out) const;

  // RouteCore and RouteSupport in one bin lookup: returns the core cell
  // and appends the support cells exactly as RouteSupport does.
  uint32_t Route(const double* p, std::vector<uint32_t>* support) const;

 private:
  // Per-cell bounds, one block of kStride doubles per dimension.
  static constexpr int kStride = 4;  // core lo, core hi, support lo, hi

  const double* CellBounds(uint32_t id) const {
    return bounds_.data() +
           static_cast<size_t>(id) * static_cast<size_t>(kStride * dims_);
  }
  bool InCore(uint32_t id, const double* p) const;
  bool InSupport(uint32_t id, const double* p) const;
  size_t BinOf(const double* p) const;
  size_t BinIndex(int dim, double x) const;

  int dims_ = 0;
  int bins_per_dim_ = 1;
  double domain_lo_[kMaxDimensions] = {};
  // bins_per_dim / extent, 0 along a dimension of zero extent.
  double bin_scale_[kMaxDimensions] = {};
  std::vector<double> bounds_;
  // Bit d set iff the cell's upper face in dimension d lies on the
  // domain's upper boundary (closed for core membership).
  std::vector<uint32_t> closed_hi_;
  // CSR bins: the candidates of flat bin b (row-major over dims) are
  // bin_cells_[bin_begin_[b] .. bin_begin_[b + 1]), every cell whose
  // r-extension intersects the bin, in ascending id.
  std::vector<uint32_t> bin_begin_;
  std::vector<uint32_t> bin_cells_;
};

}  // namespace dod

#endif  // DOD_PARTITION_PARTITION_PLAN_H_
