// Copyright 2026 The DOD Authors.

#include "alloc/bin_packing.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <set>

#include "common/stats.h"
#include "common/status.h"

namespace dod {
namespace {

PackingResult PackRoundRobin(const std::vector<double>& weights,
                             int num_bins) {
  PackingResult result;
  result.bin_of.resize(weights.size());
  result.bin_loads.assign(static_cast<size_t>(num_bins), 0.0);
  for (size_t i = 0; i < weights.size(); ++i) {
    const int bin = static_cast<int>(i % static_cast<size_t>(num_bins));
    result.bin_of[i] = bin;
    result.bin_loads[static_cast<size_t>(bin)] += weights[i];
  }
  return result;
}

PackingResult PackLpt(const std::vector<double>& weights, int num_bins) {
  PackingResult result;
  result.bin_of.resize(weights.size());
  result.bin_loads.assign(static_cast<size_t>(num_bins), 0.0);

  std::vector<size_t> order(weights.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return weights[a] > weights[b];
  });

  using Bin = std::pair<double, int>;  // (load, bin index)
  std::priority_queue<Bin, std::vector<Bin>, std::greater<Bin>> heap;
  for (int b = 0; b < num_bins; ++b) heap.emplace(0.0, b);
  for (size_t i : order) {
    auto [load, bin] = heap.top();
    heap.pop();
    result.bin_of[i] = bin;
    result.bin_loads[static_cast<size_t>(bin)] = load + weights[i];
    heap.emplace(load + weights[i], bin);
  }
  return result;
}

// One partial solution of the k-way differencing method: k sub-bins with
// loads and member items, kept sorted by descending load.
struct KkTuple {
  std::vector<double> loads;               // size k, descending
  std::vector<std::vector<size_t>> items;  // parallel to loads

  double Spread() const { return loads.front() - loads.back(); }
};

PackingResult PackKarmarkarKarp(const std::vector<double>& weights,
                                int num_bins) {
  const size_t k = static_cast<size_t>(num_bins);
  PackingResult result;
  result.bin_of.resize(weights.size());
  result.bin_loads.assign(k, 0.0);
  if (weights.empty()) return result;

  // Max-heap of tuples by spread. Each item starts as its own tuple with
  // k-1 empty sub-bins.
  auto cmp = [](const KkTuple& a, const KkTuple& b) {
    return a.Spread() < b.Spread();
  };
  std::priority_queue<KkTuple, std::vector<KkTuple>, decltype(cmp)> heap(cmp);
  for (size_t i = 0; i < weights.size(); ++i) {
    KkTuple t;
    t.loads.assign(k, 0.0);
    t.items.assign(k, {});
    t.loads[0] = weights[i];
    t.items[0].push_back(i);
    heap.push(std::move(t));
  }

  // Repeatedly merge the two tuples of largest spread, pairing the largest
  // sub-bin of one with the smallest of the other (anti-sorted merge).
  while (heap.size() > 1) {
    KkTuple a = heap.top();
    heap.pop();
    KkTuple b = heap.top();
    heap.pop();
    KkTuple merged;
    merged.loads.resize(k);
    merged.items.resize(k);
    for (size_t j = 0; j < k; ++j) {
      merged.loads[j] = a.loads[j] + b.loads[k - 1 - j];
      merged.items[j] = std::move(a.items[j]);
      auto& other = b.items[k - 1 - j];
      merged.items[j].insert(merged.items[j].end(), other.begin(),
                             other.end());
    }
    // Re-sort sub-bins by descending load, keeping item lists aligned.
    std::vector<size_t> order(k);
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
      return merged.loads[x] > merged.loads[y];
    });
    KkTuple sorted;
    sorted.loads.resize(k);
    sorted.items.resize(k);
    for (size_t j = 0; j < k; ++j) {
      sorted.loads[j] = merged.loads[order[j]];
      sorted.items[j] = std::move(merged.items[order[j]]);
    }
    heap.push(std::move(sorted));
  }

  const KkTuple final_tuple = heap.top();
  for (size_t bin = 0; bin < k; ++bin) {
    result.bin_loads[bin] = final_tuple.loads[bin];
    for (size_t item : final_tuple.items[bin]) {
      result.bin_of[item] = static_cast<int>(bin);
    }
  }
  return result;
}

}  // namespace

const char* PackingPolicyName(PackingPolicy policy) {
  switch (policy) {
    case PackingPolicy::kRoundRobin:
      return "RoundRobin";
    case PackingPolicy::kLpt:
      return "LPT";
    case PackingPolicy::kKarmarkarKarp:
      return "KarmarkarKarp";
  }
  return "Unknown";
}

double PackingResult::Makespan() const { return Max(bin_loads); }

PackingResult PackBins(const std::vector<double>& weights, int num_bins,
                       PackingPolicy policy) {
  DOD_CHECK(num_bins >= 1);
  switch (policy) {
    case PackingPolicy::kRoundRobin:
      return PackRoundRobin(weights, num_bins);
    case PackingPolicy::kLpt:
      return PackLpt(weights, num_bins);
    case PackingPolicy::kKarmarkarKarp:
      return PackKarmarkarKarp(weights, num_bins);
  }
  return PackingResult{};
}

}  // namespace dod
