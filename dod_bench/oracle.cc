// Copyright 2026 The DOD Authors.

#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>

namespace dod::bench {
namespace {

uint64_t PackCell(int64_t cx, int64_t cy) {
  return (static_cast<uint64_t>(cx) << 32) ^ static_cast<uint32_t>(cy);
}

}  // namespace

std::vector<PointId> OracleOutliers(const Dataset& data, double radius,
                                    int min_neighbors) {
  DOD_CHECK(data.dims() == 2);
  std::vector<PointId> outliers;
  if (data.empty()) return outliers;
  const Rect bounds = data.Bounds();
  // A side slightly above r keeps any pair within r at most one cell apart
  // in each dimension despite rounding in the cell computation.
  const double side = radius * (1.0 + 1e-6);
  const double sq_radius = radius * radius;
  const size_t n = data.size();

  std::vector<int64_t> cx(n), cy(n);
  std::vector<PointId> order(n);
  for (PointId id = 0; id < n; ++id) {
    const double* p = data[id];
    cx[id] = static_cast<int64_t>(std::floor((p[0] - bounds.lo(0)) / side));
    cy[id] = static_cast<int64_t>(std::floor((p[1] - bounds.lo(1)) / side));
    order[id] = id;
  }
  std::sort(order.begin(), order.end(), [&](PointId a, PointId b) {
    return cx[a] != cx[b] ? cx[a] < cx[b]
                          : cy[a] != cy[b] ? cy[a] < cy[b] : a < b;
  });
  // cell -> [begin, end) into `order`.
  std::unordered_map<uint64_t, std::pair<size_t, size_t>> cells;
  cells.reserve(n);
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j < n && cx[order[j]] == cx[order[i]] &&
           cy[order[j]] == cy[order[i]]) {
      ++j;
    }
    cells.emplace(PackCell(cx[order[i]], cy[order[i]]), std::make_pair(i, j));
    i = j;
  }

  for (PointId id = 0; id < n; ++id) {
    const double* p = data[id];
    int count = 0;
    for (int64_t dx = -1; dx <= 1 && count < min_neighbors; ++dx) {
      for (int64_t dy = -1; dy <= 1 && count < min_neighbors; ++dy) {
        const auto it = cells.find(PackCell(cx[id] + dx, cy[id] + dy));
        if (it == cells.end()) continue;
        for (size_t s = it->second.first;
             s < it->second.second && count < min_neighbors; ++s) {
          const PointId other = order[s];
          if (other == id) continue;
          const double* q = data[other];
          double sum = 0.0;
          for (int d = 0; d < 2; ++d) {
            const double diff = p[d] - q[d];
            sum += diff * diff;
          }
          if (sum <= sq_radius) ++count;
        }
      }
    }
    if (count < min_neighbors) outliers.push_back(id);
  }
  return outliers;
}

}  // namespace dod::bench
