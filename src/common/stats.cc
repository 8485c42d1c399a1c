// Copyright 2026 The DOD Authors.

#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace dod {

double Sum(const std::vector<double>& values) {
  double s = 0.0;
  for (double v : values) s += v;
  return s;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return Sum(values) / static_cast<double>(values.size());
}

double Max(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return *std::max_element(values.begin(), values.end());
}

double ImbalanceFactor(const std::vector<double>& loads) {
  const double mean = Mean(loads);
  if (mean <= 0.0) return 1.0;
  return Max(loads) / mean;
}

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace dod
