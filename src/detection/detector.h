// Copyright 2026 The DOD Authors.
//
// Centralized distance-threshold outlier detectors (Def. 2.2): point p is an
// outlier iff |N_r(p)| < k, with N_r(p) the points within distance r of p
// (self excluded).
//
// Detectors judge one partition at a time (Sec. IV): a cell's core points
// followed by the replicated support points of its supporting area
// (Def. 3.3). Only core points receive an outlier verdict, while every
// point — core or support — counts as a potential neighbor. The partition
// always arrives as an arena-built PartitionView (detection/partition_view.h)
// whose probe segment the distance kernels scan; whole-dataset callers go
// through the Dataset convenience, which stages the dataset as one arena
// cell.

#ifndef DOD_DETECTION_DETECTOR_H_
#define DOD_DETECTION_DETECTOR_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/dataset.h"
#include "detection/partition_view.h"
#include "kernels/kernel_mode.h"
#include "mapreduce/counters.h"

namespace dod {

// The two parameters of the distance-threshold outlier definition.
struct DetectionParams {
  // Distance threshold r (Def. 2.1).
  double radius = 1.0;
  // Neighbor-count threshold k (Def. 2.2).
  int min_neighbors = 1;
  // Seed for detectors with randomized probe order (Nested-Loop).
  uint64_t seed = 42;
  // Distance-kernel implementation. Verdicts are bit-identical in every
  // mode (see kernels/distance_kernels.h); kScalar is the escape hatch.
  KernelMode kernels = KernelMode::kAuto;
};

// Which centralized detection algorithm to run on a partition — the unit of
// choice in the paper's algorithm plan (Def. 3.4).
enum class AlgorithmKind {
  kNestedLoop,
  kCellBased,
  // Exact reference oracle; not part of the paper's candidate set A, used by
  // tests.
  kBruteForce,
};

const char* AlgorithmKindName(AlgorithmKind kind);

class Detector {
 public:
  virtual ~Detector() = default;

  virtual std::string_view name() const = 0;
  virtual AlgorithmKind kind() const = 0;

  // Returns the local indices (into the view, all < partition.num_core())
  // of the core points that are outliers, in increasing order. `counters`,
  // when non-null, accrues per-algorithm work counters (distance
  // computations, pruned cells, ...).
  virtual std::vector<uint32_t> DetectOutliers(const PartitionView& partition,
                                               const DetectionParams& params,
                                               Counters* counters) const = 0;

  // Whole-dataset convenience: points[0, num_core) are core, the rest
  // support. Stages ids 0..n-1 as one TaskArena cell (probe permutation
  // seeded with params.seed ^ kArenaSeedSalt, as the pipeline seeds its
  // cells) and runs the view entry; returned indices are PointIds.
  std::vector<uint32_t> DetectOutliers(const Dataset& points, size_t num_core,
                                       const DetectionParams& params,
                                       Counters* counters = nullptr) const;
};

// Factory over the algorithm candidate set.
std::unique_ptr<Detector> MakeDetector(AlgorithmKind kind);

}  // namespace dod

#endif  // DOD_DETECTION_DETECTOR_H_
