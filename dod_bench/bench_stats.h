// Copyright 2026 The DOD Authors.
//
// Order statistics shared by dod_bench and bench_diff.

#ifndef DOD_BENCH_BENCH_STATS_H_
#define DOD_BENCH_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <vector>

namespace dod::bench {

// Median (mean of the middle two for an even count); 0 when empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

// Nearest-rank percentile, q in (0, 1]; 0 when empty.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

// First and third quartiles by Python's statistics.quantiles(values, n=4)
// (the default "exclusive" method), so spreads match what a Python check
// computes from the same values. Needs at least two values.
inline void Quartiles(std::vector<double> values, double* q1, double* q3) {
  std::sort(values.begin(), values.end());
  const long n = static_cast<long>(values.size());
  const long m = n + 1;
  double result[2];
  for (long i = 1, out = 0; i <= 3; i += 2, ++out) {
    long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    result[out] = (values[static_cast<size_t>(j - 1)] * (4 - delta) +
                   values[static_cast<size_t>(j)] * delta) /
                  4.0;
  }
  *q1 = result[0];
  *q3 = result[1];
}

}  // namespace dod::bench

#endif  // DOD_BENCH_BENCH_STATS_H_
