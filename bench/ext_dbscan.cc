// Copyright 2026 The DOD Authors.
//
// Extension bench — DBSCAN on the DOD framework (Sec. III-B generality
// claim). Compares the centralized reference against the supporting-area
// distributed variant across data sizes; the distributed version's
// per-partition work parallelizes on the simulated cluster while the
// centralized one cannot.

#include <cstdio>

#include "bench_util.h"
#include "common/timer.h"
#include "data/geo_like.h"
#include "extensions/dbscan.h"

int main() {
  dod::bench::PrintHeader(
      "Extension — density-based clustering on the DOD framework",
      "Centralized DBSCAN vs the supporting-area distributed variant.\n"
      "Wall = single-machine execution; the distributed variant's "
      "partitions\nwould run in parallel on a cluster.",
      dod::bench::TimeBase::kWallClock);

  const dod::DbscanParams params{/*eps=*/4.0, /*min_pts=*/8};
  std::printf("%-8s %10s %14s %14s %10s %10s\n", "level", "points",
              "central (ms)", "distrib (ms)", "clusters", "merges");
  for (dod::MapLevel level :
       {dod::MapLevel::kMassachusetts, dod::MapLevel::kNewEngland,
        dod::MapLevel::kUnitedStates}) {
    const dod::Dataset data = dod::GenerateHierarchical(
        level, dod::bench::ScaledN(8000), 141);

    dod::StopWatch central_watch;
    const std::vector<int32_t> centralized = DbscanLabels(data, params);
    const double central_ms = central_watch.ElapsedMillis();
    int32_t central_clusters = 0;
    for (int32_t label : centralized) {
      central_clusters = std::max(central_clusters, label + 1);
    }

    dod::DistributedDbscanOptions options;
    options.target_partitions = std::max<size_t>(32, data.size() / 4000);
    dod::StopWatch dist_watch;
    const dod::DistributedDbscanResult distributed =
        DistributedDbscan(data, params, options);
    const double dist_ms = dist_watch.ElapsedMillis();

    std::printf("%-8s %10zu %14.1f %14.1f %5d/%-5d %10zu\n",
                std::string(MapLevelName(level)).c_str(), data.size(),
                central_ms, dist_ms, central_clusters,
                distributed.num_clusters, distributed.merges);
  }
  std::printf("\ncluster counts (central/distributed) must match.\n");
  return 0;
}
