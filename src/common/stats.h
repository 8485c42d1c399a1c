// Copyright 2026 The DOD Authors.
//
// Small numeric helpers shared by the planner, allocator, and benches.

#ifndef DOD_COMMON_STATS_H_
#define DOD_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace dod {

// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& values);

// max / mean — the load-imbalance factor of a set of per-worker loads.
// Returns 1.0 for an empty input or zero mean (perfectly balanced).
double ImbalanceFactor(const std::vector<double>& loads);

// Sum of values.
double Sum(const std::vector<double>& values);

// Maximum; 0 for an empty input.
double Max(const std::vector<double>& values);

// Online mean/variance accumulator (Welford).
class RunningStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return mean_; }
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace dod

#endif  // DOD_COMMON_STATS_H_
