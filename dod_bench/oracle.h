// Copyright 2026 The DOD Authors.
//
// The benchmark's independent correctness oracle: exact distance-threshold
// outliers (|N_r(p)| < k, self excluded) of a 2-d dataset, computed without
// any library detector, partitioner or kernel. Points are bucketed into a
// uniform grid of side just above r, so every neighbor of p lies in p's
// cell or one of its eight neighbors; counting stops at k. The neighbor
// test is the scalar kernel's arithmetic: squared differences summed in
// dimension order, compared <= r².
//
// The library's whole-dataset Cell-Based detector cannot serve here: it is
// one of the systems under test, and it is too slow at millions of points.

#ifndef DOD_BENCH_ORACLE_H_
#define DOD_BENCH_ORACLE_H_

#include <vector>

#include "common/dataset.h"

namespace dod::bench {

// Ascending ids of the outliers of `data` (2-d only).
std::vector<PointId> OracleOutliers(const Dataset& data, double radius,
                                    int min_neighbors);

}  // namespace dod::bench

#endif  // DOD_BENCH_ORACLE_H_
