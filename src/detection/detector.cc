// Copyright 2026 The DOD Authors.

#include "detection/detector.h"

#include "detection/brute_force.h"
#include "detection/cell_based.h"
#include "detection/nested_loop.h"

namespace dod {

std::vector<uint32_t> Detector::DetectOutliers(const Dataset& points,
                                               size_t num_core,
                                               const DetectionParams& params,
                                               Counters* counters) const {
  DOD_CHECK(num_core <= points.size());
  TaskArena arena(points, /*budget=*/nullptr, params.kernels);
  DOD_CHECK(arena.TryReserve(1, points.size()).ok());
  arena.BeginCell();
  for (PointId id = 0; id < points.size(); ++id) arena.AddPoint(id);
  arena.EndCell(num_core, params.seed ^ kArenaSeedSalt);
  DOD_CHECK(arena.TryBuildProbes().ok());
  return DetectOutliers(arena.View(0), params, counters);
}

const char* AlgorithmKindName(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kNestedLoop:
      return "Nested-Loop";
    case AlgorithmKind::kCellBased:
      return "Cell-Based";
    case AlgorithmKind::kBruteForce:
      return "BruteForce";
  }
  return "Unknown";
}

std::unique_ptr<Detector> MakeDetector(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kNestedLoop:
      return std::make_unique<NestedLoopDetector>();
    case AlgorithmKind::kCellBased:
      return std::make_unique<CellBasedDetector>();
    case AlgorithmKind::kBruteForce:
      return std::make_unique<BruteForceDetector>();
  }
  return nullptr;
}

}  // namespace dod
