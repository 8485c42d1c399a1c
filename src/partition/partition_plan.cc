// Copyright 2026 The DOD Authors.

#include "partition/partition_plan.h"

#include <algorithm>
#include <cmath>

namespace dod {

PartitionPlan::PartitionPlan(Rect domain, double radius,
                             std::vector<Rect> cell_bounds)
    : domain_(std::move(domain)), radius_(radius) {
  DOD_CHECK(radius_ > 0.0);
  DOD_CHECK(!cell_bounds.empty());
  cells_.reserve(cell_bounds.size());
  for (size_t i = 0; i < cell_bounds.size(); ++i) {
    DOD_CHECK(cell_bounds[i].dims() == domain_.dims());
    cells_.push_back(GridCell{static_cast<uint32_t>(i), cell_bounds[i]});
  }
}

bool PartitionPlan::ContainsCore(uint32_t id, const double* p) const {
  const Rect& cell = cells_[id].bounds;
  for (int d = 0; d < dims(); ++d) {
    if (p[d] < cell.lo(d)) return false;
    if (p[d] >= cell.hi(d)) {
      // A face flush with the domain's upper boundary is closed so points
      // on the boundary still have a core cell.
      if (!(cell.hi(d) >= domain_.hi(d) && p[d] <= cell.hi(d))) return false;
    }
  }
  return true;
}

Status PartitionPlan::Validate() const {
  if (cells_.empty()) {
    return Status::FailedPrecondition("plan has no cells");
  }
  // Pairwise interior disjointness.
  for (size_t i = 0; i < cells_.size(); ++i) {
    for (size_t j = i + 1; j < cells_.size(); ++j) {
      const Rect& a = cells_[i].bounds;
      const Rect& b = cells_[j].bounds;
      bool overlap = true;
      for (int d = 0; d < dims(); ++d) {
        // Interiors overlap only with strict inequalities on both sides.
        if (a.hi(d) <= b.lo(d) + 1e-12 || b.hi(d) <= a.lo(d) + 1e-12) {
          overlap = false;
          break;
        }
      }
      if (overlap) {
        return Status::FailedPrecondition(
            "cells " + std::to_string(i) + " and " + std::to_string(j) +
            " overlap: " + a.ToString() + " vs " + b.ToString());
      }
    }
  }
  // Coverage: cells must lie inside the domain and their areas must add up
  // to the domain area (sufficient together with disjointness).
  double total_area = 0.0;
  for (const GridCell& cell : cells_) {
    if (!domain_.Covers(cell.bounds)) {
      return Status::FailedPrecondition("cell " + std::to_string(cell.id) +
                                        " outside domain: " +
                                        cell.bounds.ToString());
    }
    total_area += cell.bounds.Area();
  }
  const double domain_area = domain_.Area();
  if (domain_area > 0.0 &&
      std::fabs(total_area - domain_area) > 1e-6 * domain_area) {
    return Status::FailedPrecondition(
        "cells cover " + std::to_string(total_area) + " of domain area " +
        std::to_string(domain_area));
  }
  return Status::Ok();
}

std::string PartitionPlan::ToString() const {
  std::string out = "PartitionPlan{domain=" + domain_.ToString() +
                    ", r=" + std::to_string(radius_) +
                    ", cells=" + std::to_string(cells_.size()) + "}";
  return out;
}

namespace {

// The router resolution: roughly 8·m^(1/d) bins per dimension, so a bin is
// about an eighth of a mean cell wide and its candidate list stays close
// to the cells that really hold its points. Capped at ~2^20 bins in all.
int RouterBinsPerDim(size_t num_cells, int dims) {
  const double per_dim =
      8.0 * std::pow(static_cast<double>(num_cells), 1.0 / dims);
  int bins = std::max(1, static_cast<int>(per_dim));
  while (std::pow(static_cast<double>(bins), dims) > (1 << 20) && bins > 1) {
    bins /= 2;
  }
  return std::max(1, bins);
}

// Candidate entries the CSR may hold before the resolution is halved
// (16 MiB). Only r-extensions spanning many bins reach it; there a finer
// bin cannot shorten the candidate lists anyway.
constexpr size_t kMaxBinEntries = size_t{1} << 22;

// Calls fn(flat) for every flat bin index of the box [lo, hi] (inclusive
// per dimension, row-major), in ascending flat order.
template <typename Fn>
void ForEachBin(int dims, size_t bins_per_dim, const size_t* lo,
                const size_t* hi, Fn&& fn) {
  size_t idx[kMaxDimensions];
  for (int d = 0; d < dims; ++d) idx[d] = lo[d];
  while (true) {
    size_t flat = 0;
    for (int d = 0; d < dims; ++d) flat = flat * bins_per_dim + idx[d];
    fn(flat);
    int d = dims - 1;
    while (d >= 0) {
      if (++idx[d] <= hi[d]) break;
      idx[d] = lo[d];
      --d;
    }
    if (d < 0) return;
  }
}

}  // namespace

PartitionRouter::PartitionRouter(const PartitionPlan& plan)
    : dims_(plan.dims()) {
  const Rect& domain = plan.domain();
  const double radius = plan.radius();
  const size_t m = plan.num_cells();
  const size_t stride = static_cast<size_t>(kStride * dims_);
  bounds_.resize(m * stride);
  closed_hi_.assign(m, 0);
  // Support bounds are SupportBounds(id) (Rect::Expanded): the same
  // `lo - r` / `hi + r` double operations.
  for (const GridCell& cell : plan.cells()) {
    double* b = bounds_.data() + cell.id * stride;
    for (int d = 0; d < dims_; ++d, b += kStride) {
      b[0] = cell.bounds.lo(d);
      b[1] = cell.bounds.hi(d);
      b[2] = cell.bounds.lo(d) - radius;
      b[3] = cell.bounds.hi(d) + radius;
      if (cell.bounds.hi(d) >= domain.hi(d)) closed_hi_[cell.id] |= 1u << d;
    }
  }
  for (int d = 0; d < dims_; ++d) domain_lo_[d] = domain.lo(d);

  // Bin box of every cell's r-extension at the current resolution.
  std::vector<size_t> box(m * 2 * static_cast<size_t>(dims_));
  size_t entries = 0;
  bins_per_dim_ = RouterBinsPerDim(m, dims_);
  while (true) {
    for (int d = 0; d < dims_; ++d) {
      const double extent = domain.Extent(d);
      bin_scale_[d] = extent > 0.0 ? bins_per_dim_ / extent : 0.0;
    }
    entries = 0;
    for (uint32_t id = 0; id < m; ++id) {
      const double* b = CellBounds(id);
      size_t* lo = box.data() + size_t{id} * 2 * dims_;
      size_t* hi = lo + dims_;
      size_t cell_entries = 1;
      for (int d = 0; d < dims_; ++d, b += kStride) {
        lo[d] = BinIndex(d, b[2]);
        hi[d] = BinIndex(d, b[3]);
        cell_entries *= hi[d] - lo[d] + 1;
      }
      entries += cell_entries;
    }
    if (entries <= kMaxBinEntries || bins_per_dim_ == 1) break;
    bins_per_dim_ /= 2;
  }
  DOD_CHECK(entries <= UINT32_MAX);

  // Two counting passes: bin sizes, then cells in ascending id per bin.
  size_t total_bins = 1;
  for (int d = 0; d < dims_; ++d) total_bins *= bins_per_dim_;
  const size_t bins = static_cast<size_t>(bins_per_dim_);
  bin_begin_.assign(total_bins + 1, 0);
  for (uint32_t id = 0; id < m; ++id) {
    const size_t* lo = box.data() + size_t{id} * 2 * dims_;
    ForEachBin(dims_, bins, lo, lo + dims_,
               [&](size_t flat) { ++bin_begin_[flat + 1]; });
  }
  for (size_t b = 0; b < total_bins; ++b) bin_begin_[b + 1] += bin_begin_[b];
  bin_cells_.resize(entries);
  std::vector<uint32_t> cursor(bin_begin_.begin(), bin_begin_.end() - 1);
  for (uint32_t id = 0; id < m; ++id) {
    const size_t* lo = box.data() + size_t{id} * 2 * dims_;
    ForEachBin(dims_, bins, lo, lo + dims_,
               [&](size_t flat) { bin_cells_[cursor[flat]++] = id; });
  }
}

size_t PartitionRouter::BinIndex(int dim, double x) const {
  // floor((x - lo) * scale) clamped to [0, bins - 1]. The clamp happens in
  // double, so a far-away coordinate never reaches an out-of-range integer
  // conversion and NaN lands in bin 0; on [0, bins) truncation is floor.
  const double t = (x - domain_lo_[dim]) * bin_scale_[dim];
  if (t >= bins_per_dim_) return static_cast<size_t>(bins_per_dim_ - 1);
  return t >= 0.0 ? static_cast<size_t>(t) : 0;
}

size_t PartitionRouter::BinOf(const double* p) const {
  size_t flat = 0;
  for (int d = 0; d < dims_; ++d) {
    flat = flat * static_cast<size_t>(bins_per_dim_) + BinIndex(d, p[d]);
  }
  return flat;
}

bool PartitionRouter::InCore(uint32_t id, const double* p) const {
  // PartitionPlan::ContainsCore's comparisons: [lo, hi) per dimension, hi
  // included where the face lies on the domain's upper boundary.
  const double* b = CellBounds(id);
  const uint32_t closed = closed_hi_[id];
  for (int d = 0; d < dims_; ++d, b += kStride) {
    if (p[d] < b[0] || p[d] > b[1]) return false;
    if (p[d] == b[1] && ((closed >> d) & 1u) == 0) return false;
  }
  return true;
}

bool PartitionRouter::InSupport(uint32_t id, const double* p) const {
  // Rect::Contains on SupportBounds(id): closed in every dimension.
  const double* b = CellBounds(id);
  for (int d = 0; d < dims_; ++d, b += kStride) {
    if (p[d] < b[2] || p[d] > b[3]) return false;
  }
  return true;
}

uint32_t PartitionRouter::RouteCore(const double* p) const {
  const size_t bin = BinOf(p);
  for (uint32_t i = bin_begin_[bin]; i < bin_begin_[bin + 1]; ++i) {
    if (InCore(bin_cells_[i], p)) return bin_cells_[i];
  }
  DOD_CHECK_MSG(false, "point not covered by partition plan");
  return 0;
}

void PartitionRouter::RouteSupport(const double* p,
                                   std::vector<uint32_t>* out) const {
  const size_t bin = BinOf(p);
  for (uint32_t i = bin_begin_[bin]; i < bin_begin_[bin + 1]; ++i) {
    const uint32_t id = bin_cells_[i];
    if (!InCore(id, p) && InSupport(id, p)) out->push_back(id);
  }
}

uint32_t PartitionRouter::Route(const double* p,
                                std::vector<uint32_t>* support) const {
  const size_t bin = BinOf(p);
  uint32_t core = 0;
  bool covered = false;
  for (uint32_t i = bin_begin_[bin]; i < bin_begin_[bin + 1]; ++i) {
    const uint32_t id = bin_cells_[i];
    if (InCore(id, p)) {
      // The first core hit is RouteCore's answer.
      if (!covered) core = id;
      covered = true;
    } else if (InSupport(id, p)) {
      support->push_back(id);
    }
  }
  DOD_CHECK_MSG(covered, "point not covered by partition plan");
  return core;
}

}  // namespace dod
