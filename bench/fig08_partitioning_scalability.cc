// Copyright 2026 The DOD Authors.
//
// Figure 8 — Partitioning scalability for growing data sizes.
//
// Paper setup (Sec. VI-B): hierarchical OpenStreetMap datasets MA → New
// England → US → Planet (30 M → 4 B points; we scale ~1000× down),
// partitioners Domain/uniSpace/DDriven/CDriven, detector fixed to
// Nested-Loop (a) and Cell-Based (b); log-scale execution time.
//
// Reported shape: CDriven always wins, and wins more the larger the data —
// at planet scale 6x over DDriven and 17x over Domain.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "data/geo_like.h"

namespace {

using dod::bench::BenchConfig;
using dod::bench::RunPipeline;

void RunPart(dod::AlgorithmKind algorithm, const char* part_label,
             size_t base_n) {
  const dod::DetectionParams params{5.0, 4};
  std::printf("\n--- Fig 8(%s): detector fixed to %s; absolute times, log "
              "scale in the paper ---\n",
              part_label, dod::AlgorithmKindName(algorithm));
  std::printf("%-8s %10s %12s %12s %12s %12s | %18s\n", "level", "points",
              "Domain", "uniSpace", "DDriven", "CDriven", "Domain/CDriven");

  for (dod::MapLevel level :
       {dod::MapLevel::kMassachusetts, dod::MapLevel::kNewEngland,
        dod::MapLevel::kUnitedStates, dod::MapLevel::kPlanet}) {
    const dod::Dataset data = dod::GenerateHierarchical(level, base_n, 81);
    const size_t n = data.size();

    auto time_of = [&](dod::StrategyKind strategy) {
      return RunPipeline(BenchConfig(strategy, algorithm, params, n), data,
                         "")
          .total_seconds;
    };
    const double domain = time_of(dod::StrategyKind::kDomain);
    const double unispace = time_of(dod::StrategyKind::kUniSpace);
    const double ddriven = time_of(dod::StrategyKind::kDDriven);
    const double cdriven = time_of(dod::StrategyKind::kCDriven);

    std::printf("%-8s %10zu %12.4f %12.4f %12.4f %12.4f | %17.1fx\n",
                std::string(MapLevelName(level)).c_str(), n, domain, unispace,
                ddriven, cdriven, domain / cdriven);
  }
}

}  // namespace

int main() {
  const size_t base_n = dod::bench::ScaledN(8000);
  dod::bench::PrintHeader(
      "Figure 8 — Partitioning scalability MA → NE → US → Planet",
      "Paper: CDriven wins in all cases, and wins more as data grows\n"
      "(6x over DDriven and 17x over Domain at planet scale).",
      dod::bench::TimeBase::kSimulated);
  RunPart(dod::AlgorithmKind::kNestedLoop, "a", base_n);
  RunPart(dod::AlgorithmKind::kCellBased, "b", base_n);
  return 0;
}
