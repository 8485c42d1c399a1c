// Copyright 2026 The DOD Authors.
//
// Figure 7 — Partitioning effectiveness across data distributions.
//
// Paper setup (Sec. VI-B): the four OpenStreetMap regions OH/MA/CA/NY
// (equal cardinality, very different densities); partitioners Domain,
// uniSpace, DDriven reported as time *relative to CDriven*; the reduce-side
// detector fixed to Nested-Loop (a) and Cell-Based (b).
//
// Reported shape: CDriven wins everywhere (others up to 5x slower);
// uniSpace beats Domain (single-pass); DDriven beats uniSpace (~40%);
// CDriven beats DDriven by at least 50%.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/geo_like.h"

namespace {

using dod::bench::BenchConfig;
using dod::bench::RunPipeline;

void RunPart(dod::AlgorithmKind algorithm, const char* part_label,
             size_t n) {
  const dod::DetectionParams params{5.0, 4};
  std::printf("\n--- Fig 7(%s): detector fixed to %s; times relative to "
              "CDriven ---\n",
              part_label, dod::AlgorithmKindName(algorithm));
  std::printf("%-5s %10s %10s %10s %10s | %14s\n", "reg", "Domain",
              "uniSpace", "DDriven", "CDriven", "CDriven (s)");

  for (dod::GeoRegion region :
       {dod::GeoRegion::kOhio, dod::GeoRegion::kMassachusetts,
        dod::GeoRegion::kCalifornia, dod::GeoRegion::kNewYork}) {
    const dod::Dataset data = dod::GenerateGeoRegion(region, n, 71);

    auto time_of = [&](dod::StrategyKind strategy) {
      return RunPipeline(BenchConfig(strategy, algorithm, params, n), data,
                         "")
          .total_seconds;
    };
    const double cdriven = time_of(dod::StrategyKind::kCDriven);
    const double domain = time_of(dod::StrategyKind::kDomain);
    const double unispace = time_of(dod::StrategyKind::kUniSpace);
    const double ddriven = time_of(dod::StrategyKind::kDDriven);

    std::printf("%-5s %9.2fx %9.2fx %9.2fx %9.2fx | %14.4f\n",
                std::string(GeoRegionName(region)).c_str(), domain / cdriven,
                unispace / cdriven, ddriven / cdriven, 1.0, cdriven);
  }
}

}  // namespace

int main() {
  const size_t n = dod::bench::ScaledN(30000);
  dod::bench::PrintHeader(
      "Figure 7 — Partitioning strategies across distributions (OH/MA/CA/NY)",
      "Bars are execution time relative to the CDriven partitioner.\n"
      "Paper: CDriven wins up to 5x; DDriven > uniSpace > Domain.",
      dod::bench::TimeBase::kSimulated);
  RunPart(dod::AlgorithmKind::kNestedLoop, "a", n);
  RunPart(dod::AlgorithmKind::kCellBased, "b", n);
  return 0;
}
