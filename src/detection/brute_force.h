// Copyright 2026 The DOD Authors.
//
// Exact reference detector: counts each core point's neighbors by a
// deterministic per-pair scan of the partition in local order (with early
// exit at k). It reads coordinates straight from the view — neither the
// distance kernels nor the probe segment — so it stays an independent
// oracle for the detectors that use them.

#ifndef DOD_DETECTION_BRUTE_FORCE_H_
#define DOD_DETECTION_BRUTE_FORCE_H_

#include "detection/detector.h"

namespace dod {

class BruteForceDetector : public Detector {
 public:
  using Detector::DetectOutliers;

  std::string_view name() const override { return "BruteForce"; }
  AlgorithmKind kind() const override { return AlgorithmKind::kBruteForce; }

  std::vector<uint32_t> DetectOutliers(const PartitionView& partition,
                                       const DetectionParams& params,
                                       Counters* counters) const override;
};

}  // namespace dod

#endif  // DOD_DETECTION_BRUTE_FORCE_H_
