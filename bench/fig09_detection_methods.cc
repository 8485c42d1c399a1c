// Copyright 2026 The DOD Authors.
//
// Figure 9 — Effectiveness of the reduce-side detection methods.
//
// Paper setup (Sec. VI-C): partitioning fixed to the strongest baseline
// (CDriven); detectors Nested-Loop, Cell-Based, and the multi-tactic DMT.
// (a) the four regions OH/MA/CA/NY; (b) hierarchical sizes MA → Planet
// (log scale).
//
// Reported shape: Cell-Based ≥2x faster than Nested-Loop on dense CA/NY;
// Nested-Loop wins on sparse OH; DMT stays stable and best everywhere
// (≈2x over the best monolithic detector), winning more as data grows.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "data/geo_like.h"

namespace {

using dod::bench::BenchConfig;
using dod::bench::RunPipeline;

struct Row {
  double nested_loop;
  double cell_based;
  double dmt;
};

Row MeasureRow(const dod::Dataset& data) {
  const dod::DetectionParams params{5.0, 4};
  const size_t n = data.size();
  Row row;
  row.nested_loop =
      RunPipeline(BenchConfig(dod::StrategyKind::kCDriven,
                              dod::AlgorithmKind::kNestedLoop, params, n),
                  data, "")
          .total_seconds;
  row.cell_based =
      RunPipeline(BenchConfig(dod::StrategyKind::kCDriven,
                              dod::AlgorithmKind::kCellBased, params, n),
                  data, "")
          .total_seconds;
  row.dmt = RunPipeline(BenchConfig(dod::StrategyKind::kDmt,
                                    dod::AlgorithmKind::kCellBased, params, n),
                        data, "")
                .total_seconds;
  return row;
}

}  // namespace

int main() {
  dod::bench::PrintHeader(
      "Figure 9 — Detection methods (partitioning fixed to CDriven)",
      "Paper: CB wins on dense CA/NY, NL wins on sparse OH, DMT stable and\n"
      "best everywhere; DMT's margin grows with data size.",
      dod::bench::TimeBase::kSimulated);

  const size_t n = dod::bench::ScaledN(30000);
  std::printf("\n--- Fig 9(a): varying distributions ---\n");
  std::printf("%-5s %14s %14s %10s | %12s\n", "reg", "Nested-Loop",
              "Cell-Based", "DMT", "best/DMT");
  for (dod::GeoRegion region :
       {dod::GeoRegion::kOhio, dod::GeoRegion::kMassachusetts,
        dod::GeoRegion::kCalifornia, dod::GeoRegion::kNewYork}) {
    const dod::Dataset data = dod::GenerateGeoRegion(region, n, 91);
    const Row row = MeasureRow(data);
    std::printf("%-5s %14.4f %14.4f %10.4f | %11.2fx\n",
                std::string(GeoRegionName(region)).c_str(), row.nested_loop,
                row.cell_based, row.dmt,
                std::min(row.nested_loop, row.cell_based) / row.dmt);
  }

  const size_t base_n = dod::bench::ScaledN(8000);
  std::printf("\n--- Fig 9(b): varying data sizes (log scale in paper) ---\n");
  std::printf("%-8s %10s %14s %14s %10s | %12s\n", "level", "points",
              "Nested-Loop", "Cell-Based", "DMT", "best/DMT");
  for (dod::MapLevel level :
       {dod::MapLevel::kMassachusetts, dod::MapLevel::kNewEngland,
        dod::MapLevel::kUnitedStates, dod::MapLevel::kPlanet}) {
    const dod::Dataset data = dod::GenerateHierarchical(level, base_n, 93);
    const Row row = MeasureRow(data);
    std::printf("%-8s %10zu %14.4f %14.4f %10.4f | %11.2fx\n",
                std::string(MapLevelName(level)).c_str(), data.size(),
                row.nested_loop, row.cell_based, row.dmt,
                std::min(row.nested_loop, row.cell_based) / row.dmt);
  }
  return 0;
}
