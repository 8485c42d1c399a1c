// Copyright 2026 The DOD Authors.
//
// Distance-kernel throughput: pairs/sec of every compiled implementation
// (scalar / blocked / avx2) on the 2-d workload the paper evaluates, plus
// the end-to-end effect on the nested-loop detector. Emits
// BENCH_kernels.json next to the binary.
//
// Usage: bench_kernels [n]   (n overrides the point count; CI smoke passes
// a tiny n). DOD_BENCH_SCALE applies when n is not given.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "data/tiger_like.h"
#include "detection/nested_loop.h"
#include "kernels/distance_kernels.h"
#include "kernels/soa_block.h"
#include "observability/metrics.h"
#include "observability/profile.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct KernelPoint {
  std::string impl;
  double pairs_per_sec = 0.0;
  double speedup = 0.0;  // over scalar
};

struct DetectorPoint {
  double scalar_seconds = 0.0;
  double auto_seconds = 0.0;
  size_t outliers = 0;
};

// Uncapped neighbor counting of `queries` against the whole SoA; returns
// pairs/sec of the fastest of `repeats` passes and checks every impl agrees
// with the reference counts.
KernelPoint MeasureKernel(const dod::KernelOps& ops, const dod::SoABlock& soa,
                          const dod::Dataset& data,
                          const std::vector<uint32_t>& queries,
                          double sq_radius, std::vector<int>* counts,
                          int repeats) {
  KernelPoint point;
  point.impl = ops.name;
  double best = 1e300;
  uint64_t pairs = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    pairs = 0;
    std::vector<int> got(queries.size());
    const Clock::time_point start = Clock::now();
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const uint32_t q = queries[qi];
      got[qi] = ops.count_within_radius(soa, 0, soa.size(), data[q],
                                        sq_radius, /*skip_id=*/q,
                                        /*cap=*/-1, &pairs);
    }
    best = std::min(best, SecondsSince(start));
    if (counts->empty()) {
      *counts = got;
    } else if (got != *counts) {
      std::fprintf(stderr, "FATAL: %s disagrees with reference counts\n",
                   ops.name);
      std::exit(1);
    }
  }
  point.pairs_per_sec = static_cast<double>(pairs) / best;
  return point;
}

DetectorPoint MeasureDetector(const dod::Dataset& data,
                              dod::DetectionParams params, int repeats) {
  DetectorPoint point;
  point.scalar_seconds = 1e300;
  point.auto_seconds = 1e300;
  dod::NestedLoopDetector detector;
  std::vector<uint32_t> reference;
  for (int rep = 0; rep < repeats; ++rep) {
    params.kernels = dod::KernelMode::kScalar;
    Clock::time_point start = Clock::now();
    const std::vector<uint32_t> scalar_out =
        detector.DetectOutliers(data, data.size(), params, nullptr);
    point.scalar_seconds = std::min(point.scalar_seconds,
                                    SecondsSince(start));
    params.kernels = dod::KernelMode::kAuto;
    start = Clock::now();
    const std::vector<uint32_t> auto_out =
        detector.DetectOutliers(data, data.size(), params, nullptr);
    point.auto_seconds = std::min(point.auto_seconds, SecondsSince(start));
    if (scalar_out != auto_out) {
      std::fprintf(stderr, "FATAL: detector outliers differ across modes\n");
      std::exit(1);
    }
    point.outliers = scalar_out.size();
  }
  return point;
}

void WriteJson(const char* path, size_t n, size_t num_queries,
               const std::vector<KernelPoint>& kernels,
               const DetectorPoint& detector) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"kernels\",\n  \"dims\": 2,\n");
  std::fprintf(f, "  \"n\": %zu,\n  \"queries\": %zu,\n", n, num_queries);
  std::fprintf(f, "  \"avx2_available\": %s,\n",
               dod::Avx2KernelsAvailable() ? "true" : "false");
  std::fprintf(f, "  \"kernel\": [\n");
  for (size_t i = 0; i < kernels.size(); ++i) {
    std::fprintf(f,
                 "    {\"impl\": \"%s\", \"pairs_per_sec\": %.0f, "
                 "\"speedup_vs_scalar\": %.3f}%s\n",
                 kernels[i].impl.c_str(), kernels[i].pairs_per_sec,
                 kernels[i].speedup, i + 1 < kernels.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"nested_loop\": {\"scalar_seconds\": %.6f, "
               "\"auto_seconds\": %.6f, \"speedup\": %.3f, "
               "\"outliers\": %zu}\n}\n",
               detector.scalar_seconds, detector.auto_seconds,
               detector.scalar_seconds / detector.auto_seconds,
               detector.outliers);
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const size_t n = argc > 1 ? static_cast<size_t>(std::atoll(argv[1]))
                            : dod::bench::ScaledN(100000);
  const size_t num_queries = std::min<size_t>(n, 512);
  const int repeats = n <= 10000 ? 1 : 3;

  dod::bench::PrintHeader(
      "Distance-kernel throughput — scalar vs blocked vs AVX2, 2-d",
      "Uncapped neighbor counting of sampled queries against the full\n"
      "dataset; every implementation is checked against the scalar counts.",
      dod::bench::TimeBase::kWallClock);

  const dod::Dataset data = dod::GenerateTigerLike(n, 1234);
  dod::SoABlock soa(data.dims());
  soa.Assign(data);
  dod::Rng rng(55);
  std::vector<uint32_t> queries(num_queries);
  for (uint32_t& q : queries) {
    q = static_cast<uint32_t>(rng.NextBounded(data.size()));
  }
  const double radius = 5.0;
  const double sq_radius = radius * radius;

  std::vector<const dod::KernelOps*> impls = {
      dod::GetKernelOpsByName("scalar"), dod::GetKernelOpsByName("blocked")};
  if (const dod::KernelOps* avx2 = dod::GetKernelOpsByName("avx2")) {
    impls.push_back(avx2);
  } else {
    std::printf("(avx2 kernels unavailable on this build/CPU)\n");
  }

  std::printf("%zu points, %zu queries, radius %.1f\n\n", data.size(),
              num_queries, radius);
  std::printf("%10s %16s %10s\n", "impl", "pairs/sec", "speedup");

  std::vector<int> reference_counts;
  std::vector<KernelPoint> kernels;
  for (const dod::KernelOps* ops : impls) {
    KernelPoint point = MeasureKernel(*ops, soa, data, queries, sq_radius,
                                      &reference_counts, repeats);
    point.speedup = kernels.empty()
                        ? 1.0
                        : point.pairs_per_sec / kernels.front().pairs_per_sec;
    std::printf("%10s %16.3e %9.2fx\n", point.impl.c_str(),
                point.pairs_per_sec, point.speedup);
    kernels.push_back(point);
  }

  // End-to-end: the nested-loop detector is the most kernel-bound caller.
  const size_t detector_n = std::min<size_t>(n, 20000);
  const dod::Dataset detector_data = dod::GenerateTigerLike(detector_n, 77);
  dod::DetectionParams params{/*radius=*/2.0, /*min_neighbors=*/20};
  const DetectorPoint detector =
      MeasureDetector(detector_data, params, repeats);
  std::printf("\nnested-loop detector, %zu points: scalar %.4fs, auto %.4fs "
              "(%.2fx), %zu outliers\n",
              detector_n, detector.scalar_seconds, detector.auto_seconds,
              detector.scalar_seconds / detector.auto_seconds,
              detector.outliers);

  WriteJson("BENCH_kernels.json", data.size(), num_queries, kernels,
            detector);
  dod::bench::WriteMetricsJson("BENCH_kernels_metrics.json", {});
  return 0;
}
