// Copyright 2026 The DOD Authors.
//
// The Nested-Loop detector (Knorr & Ng, VLDB'98; Sec. IV-A of the paper):
// for each point p, evaluate distances to the other points *in random order*
// until either k neighbors are found (p is an inlier) or every point has
// been examined (p is an outlier). Its expected cost on uniform data is
// |D| · A(D) · k / A(p) (Lemma 4.1): cheap on dense partitions where random
// probes hit neighbors quickly, expensive on sparse ones. The random order
// is the view's pre-permuted probe segment, swept from a per-point random
// start.

#ifndef DOD_DETECTION_NESTED_LOOP_H_
#define DOD_DETECTION_NESTED_LOOP_H_

#include "detection/detector.h"

namespace dod {

class NestedLoopDetector : public Detector {
 public:
  using Detector::DetectOutliers;

  std::string_view name() const override { return "Nested-Loop"; }
  AlgorithmKind kind() const override { return AlgorithmKind::kNestedLoop; }

  std::vector<uint32_t> DetectOutliers(const PartitionView& partition,
                                       const DetectionParams& params,
                                       Counters* counters) const override;
};

}  // namespace dod

#endif  // DOD_DETECTION_NESTED_LOOP_H_
