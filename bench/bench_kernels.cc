// Copyright 2026 The DOD Authors.
//
// Distance-kernel throughput: pairs/sec of every compiled implementation
// (scalar / blocked / avx2) on the 2-d workload the paper evaluates, for
// uncapped counts and for the capped k = 4 sweeps Nested-Loop runs, plus
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

// One implementation's capped sweeps (pairs differ from scalar's: the
// batched paths stop at the end of the block that reached the cap).
struct SweepPoint {
  std::string impl;
  double pairs_per_sec = 0.0;
  double queries_per_sec = 0.0;
  uint64_t pairs = 0;
};

struct DetectorPoint {
  double scalar_seconds = 0.0;
  double auto_seconds = 0.0;
  size_t outliers = 0;
};

// Uncapped neighbor counting of `queries` against the whole SoA; returns
// pairs/sec of the fastest of `repeats` passes and exits 1 unless every
// impl agrees with the reference counts and evaluated pairs (the first
// impl measured, scalar, sets both).
KernelPoint MeasureKernel(const dod::KernelOps& ops, const dod::SoABlock& soa,
                          const dod::Dataset& data,
                          const std::vector<uint32_t>& queries,
                          double sq_radius, std::vector<int>* counts,
                          uint64_t* reference_pairs, int repeats) {
  KernelPoint point;
  point.impl = ops.name;
  double best = 1e300;
  uint64_t pairs = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    pairs = 0;
    std::vector<int> got(queries.size());
    const Clock::time_point start = Clock::now();
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      // soa holds point j in slot j, so the query skips slot q.
      const uint32_t q = queries[qi];
      got[qi] = ops.count_within_radius(soa, 0, soa.size(), data[q],
                                        sq_radius, /*skip_slot=*/q,
                                        /*cap=*/-1, &pairs);
    }
    best = std::min(best, SecondsSince(start));
    if (counts->empty()) {
      *counts = got;
      *reference_pairs = pairs;
    } else if (got != *counts) {
      std::fprintf(stderr, "FATAL: %s disagrees with reference counts\n",
                   ops.name);
      std::exit(1);
    } else if (pairs != *reference_pairs) {
      std::fprintf(stderr,
                   "FATAL: %s evaluated %llu pairs, reference %llu\n",
                   ops.name, static_cast<unsigned long long>(pairs),
                   static_cast<unsigned long long>(*reference_pairs));
      std::exit(1);
    }
  }
  point.pairs_per_sec = static_cast<double>(pairs) / best;
  return point;
}

// Nested-Loop's probe pattern: each query, a slot of the permuted segment
// `soa`, sweeps [start, end) and then [0, start) from its own random start
// until k neighbors are found, skipping its own slot. Returns the fastest of
// `repeats` passes and exits 1 unless every impl reaches the same verdicts
// and, below the cap, the same counts as scalar (the first impl measured),
// and the batched impls evaluate the same pairs as each other.
SweepPoint MeasureSweep(const dod::KernelOps& ops, const dod::SoABlock& soa,
                        const std::vector<uint32_t>& queries,
                        const std::vector<uint32_t>& starts, double sq_radius,
                        int k, std::vector<int>* counts,
                        uint64_t* batched_pairs, int repeats) {
  SweepPoint point;
  point.impl = ops.name;
  const int dims = soa.dims();
  const bool reference = counts->empty();
  double best = 1e300;
  for (int rep = 0; rep < repeats; ++rep) {
    uint64_t pairs = 0;
    std::vector<int> got(queries.size());
    double q[dod::kMaxDimensions];
    const Clock::time_point start = Clock::now();
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const size_t slot = queries[qi];
      for (int d = 0; d < dims; ++d) {
        q[d] = soa.Lane(slot / dod::kSoaWidth, d)[slot % dod::kSoaWidth];
      }
      int found = ops.count_within_radius(soa, starts[qi], soa.size(), q,
                                          sq_radius, slot, k, &pairs);
      if (found < k) {
        found += ops.count_within_radius(soa, 0, starts[qi], q, sq_radius,
                                         slot, k - found, &pairs);
      }
      got[qi] = found;
    }
    best = std::min(best, SecondsSince(start));
    point.pairs = pairs;
    if (reference) {
      *counts = got;
      continue;
    }
    for (size_t qi = 0; qi < got.size(); ++qi) {
      const int want = (*counts)[qi];
      if ((got[qi] >= k) != (want >= k) || (want < k && got[qi] != want)) {
        std::fprintf(stderr, "FATAL: %s capped sweep disagrees with scalar\n",
                     ops.name);
        std::exit(1);
      }
    }
    if (*batched_pairs == 0) *batched_pairs = pairs;
    if (pairs != *batched_pairs) {
      std::fprintf(stderr,
                   "FATAL: %s capped sweep evaluated %llu pairs, blocked "
                   "%llu\n",
                   ops.name, static_cast<unsigned long long>(pairs),
                   static_cast<unsigned long long>(*batched_pairs));
      std::exit(1);
    }
  }
  point.pairs_per_sec = static_cast<double>(point.pairs) / best;
  point.queries_per_sec = static_cast<double>(queries.size()) / best;
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
               const std::vector<SweepPoint>& sweeps, int sweep_k,
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
  std::fprintf(f, "  ],\n  \"capped_sweep_k\": %d,\n", sweep_k);
  std::fprintf(f, "  \"capped_sweep\": [\n");
  for (size_t i = 0; i < sweeps.size(); ++i) {
    std::fprintf(f,
                 "    {\"impl\": \"%s\", \"pairs_per_sec\": %.0f, "
                 "\"queries_per_sec\": %.0f, \"pairs\": %llu}%s\n",
                 sweeps[i].impl.c_str(), sweeps[i].pairs_per_sec,
                 sweeps[i].queries_per_sec,
                 static_cast<unsigned long long>(sweeps[i].pairs),
                 i + 1 < sweeps.size() ? "," : "");
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
      "dataset, then capped k = 4 sweeps from random starts over a permuted\n"
      "segment; every implementation is checked against the scalar counts.",
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
  uint64_t reference_pairs = 0;
  std::vector<KernelPoint> kernels;
  for (const dod::KernelOps* ops : impls) {
    KernelPoint point = MeasureKernel(*ops, soa, data, queries, sq_radius,
                                      &reference_counts, &reference_pairs,
                                      repeats);
    point.speedup = kernels.empty()
                        ? 1.0
                        : point.pairs_per_sec / kernels.front().pairs_per_sec;
    std::printf("%10s %16.3e %9.2fx\n", point.impl.c_str(),
                point.pairs_per_sec, point.speedup);
    kernels.push_back(point);
  }

  // Capped sweeps over the points in a random permutation, as the task
  // arena lays out a Nested-Loop segment.
  constexpr int kSweepK = 4;
  dod::Rng sweep_rng(56);
  const std::vector<uint32_t> order =
      dod::RandomPermutation(data.size(), sweep_rng);
  dod::SoABlock permuted(data.dims());
  for (uint32_t id : order) permuted.Append(data[id], id);
  std::vector<uint32_t> sweep_queries(std::min<size_t>(n, 4096));
  std::vector<uint32_t> starts(sweep_queries.size());
  for (size_t qi = 0; qi < sweep_queries.size(); ++qi) {
    sweep_queries[qi] = static_cast<uint32_t>(sweep_rng.NextBounded(n));
    starts[qi] = static_cast<uint32_t>(sweep_rng.NextBounded(n));
  }
  std::printf("\ncapped sweeps, k = %d, %zu queries from random starts\n",
              kSweepK, sweep_queries.size());
  std::printf("%10s %16s %16s %14s\n", "impl", "pairs/sec", "queries/sec",
              "pairs");
  std::vector<int> sweep_counts;
  uint64_t batched_pairs = 0;
  std::vector<SweepPoint> sweeps;
  for (const dod::KernelOps* ops : impls) {
    const SweepPoint point =
        MeasureSweep(*ops, permuted, sweep_queries, starts, sq_radius,
                     kSweepK, &sweep_counts, &batched_pairs, repeats);
    std::printf("%10s %16.3e %16.3e %14llu\n", point.impl.c_str(),
                point.pairs_per_sec, point.queries_per_sec,
                static_cast<unsigned long long>(point.pairs));
    sweeps.push_back(point);
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

  WriteJson("BENCH_kernels.json", data.size(), num_queries, kernels, sweeps,
            kSweepK, detector);
  dod::bench::WriteMetricsJson("BENCH_kernels_metrics.json", {});
  return 0;
}
