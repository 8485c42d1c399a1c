// Copyright 2026 The DOD Authors.
//
// Micro-benchmarks (google-benchmark) of the hot primitives: distance
// kernels, grid hashing, router lookups (cache-resident and in the
// detection map's scattered BlockStore order), the task arena's probe
// build, AF-tree insertion, and the centralized detectors at fixed size.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/distance.h"
#include "data/generators.h"
#include "detection/cell_based.h"
#include "detection/grid.h"
#include "detection/nested_loop.h"
#include "detection/partition_view.h"
#include "dshc/af_tree.h"
#include "io/block_store.h"
#include "partition/partition_plan.h"
#include "partition/strategies.h"

namespace dod {
namespace {

void BM_SquaredEuclidean2D(benchmark::State& state) {
  const double a[2] = {1.0, 2.0};
  const double b[2] = {3.0, 4.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(SquaredEuclidean(a, b, 2));
  }
}
BENCHMARK(BM_SquaredEuclidean2D);

void BM_WithinDistance2D(benchmark::State& state) {
  const double a[2] = {1.0, 2.0};
  const double b[2] = {3.0, 4.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(WithinDistance(a, b, 2, 5.0));
  }
}
BENCHMARK(BM_WithinDistance2D);

void BM_GridBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset data = GenerateUniform(n, Rect::Cube(2, 0.0, 100.0), 7);
  for (auto _ : state) {
    const SparseGrid grid(data.Bounds().min(), 1.77,
                          static_cast<uint32_t>(data.size()),
                          [&](uint32_t i) { return data[i]; });
    benchmark::DoNotOptimize(grid.cells().size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_GridBuild)->Arg(10000)->Arg(100000);

void BM_GridCountBlock(benchmark::State& state) {
  const Dataset data = GenerateUniform(50000, Rect::Cube(2, 0.0, 300.0), 9);
  const SparseGrid grid(data.Bounds().min(), 1.77,
                        static_cast<uint32_t>(data.size()),
                        [&](uint32_t i) { return data[i]; });
  size_t cursor = 0;
  for (auto _ : state) {
    const auto& cell = grid.cells()[cursor++ % grid.cells().size()];
    benchmark::DoNotOptimize(grid.CountBlock(cell.coord, 3));
  }
}
BENCHMARK(BM_GridCountBlock);

void BM_RouterRouteCore(benchmark::State& state) {
  const Rect domain = Rect::Cube(2, 0.0, 1000.0);
  const PartitionPlan plan(domain, 5.0, EquiWidthCells(domain, 256));
  const PartitionRouter router(plan);
  const Dataset data = GenerateUniform(10000, domain, 11);
  size_t cursor = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        router.RouteCore(data[cursor++ % data.size()]));
  }
}
BENCHMARK(BM_RouterRouteCore);

// The detection map's fused lookup: core cell plus support cells.
void BM_RouterRoute(benchmark::State& state) {
  const Rect domain = Rect::Cube(2, 0.0, 1000.0);
  const PartitionPlan plan(domain, 5.0, EquiWidthCells(domain, 256));
  const PartitionRouter router(plan);
  const Dataset data = GenerateUniform(10000, domain, 11);
  std::vector<uint32_t> support;
  size_t cursor = 0;
  for (auto _ : state) {
    support.clear();
    benchmark::DoNotOptimize(
        router.Route(data[cursor++ % data.size()], &support));
    benchmark::DoNotOptimize(support.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RouterRoute);

// A 2^20-point (16 MiB) dataset and its BlockStore, as the detection map
// reads them: each block lists its ids in random order, so the per-point
// reads miss the cache. BM_RouterRoute's 10k points stay cache-resident
// and cannot show that miss.
struct ScatteredInput {
  Rect domain = Rect::Cube(2, 0.0, 1000.0);
  Dataset data = GenerateUniform(size_t{1} << 20, domain, 17);
  BlockStore store{data, 8, 0xB10C};
};

const ScatteredInput& Scattered() {
  static const ScatteredInput input;
  return input;
}

// The detection map's loop over every block: fused Route per point, each
// point prefetched kPrefetchLookahead ids ahead.
void BM_RouterRouteBlockOrder(benchmark::State& state) {
  const ScatteredInput& input = Scattered();
  const PartitionPlan plan(input.domain, 5.0,
                           EquiWidthCells(input.domain, 256));
  const PartitionRouter router(plan);
  std::vector<uint32_t> support;
  for (auto _ : state) {
    uint64_t cells = 0;
    for (size_t b = 0; b < input.store.num_blocks(); ++b) {
      const std::vector<PointId>& block = input.store.block(b);
      for (size_t i = 0; i < block.size(); ++i) {
        if (i + kPrefetchLookahead < block.size()) {
          input.data.Prefetch(block[i + kPrefetchLookahead]);
        }
        support.clear();
        cells += router.Route(input.data[block[i]], &support);
        cells += support.size();
      }
    }
    benchmark::DoNotOptimize(cells);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.data.size()));
}
BENCHMARK(BM_RouterRouteBlockOrder)->Unit(benchmark::kMillisecond);

// A reduce task's arena over the same dataset: ids staged in BlockStore
// order into 32 cells (equal-width strips along x), then one
// TryBuildProbes (the prefetched gather into the SoA probe buffer).
void BM_ArenaBuildProbes(benchmark::State& state) {
  const ScatteredInput& input = Scattered();
  constexpr size_t kCells = 32;
  const double strip = input.domain.Extent(0) / kCells;
  std::vector<std::vector<PointId>> cells(kCells);
  for (size_t b = 0; b < input.store.num_blocks(); ++b) {
    for (PointId id : input.store.block(b)) {
      const auto c = static_cast<size_t>(input.data[id][0] / strip);
      cells[std::min(c, kCells - 1)].push_back(id);
    }
  }
  for (auto _ : state) {
    TaskArena arena(input.data);
    if (!arena.TryReserve(cells.size(), input.data.size()).ok()) {
      state.SkipWithError("arena reservation failed");
      break;
    }
    for (size_t c = 0; c < cells.size(); ++c) {
      arena.BeginCell();
      for (PointId id : cells[c]) arena.AddPoint(id);
      arena.EndCell(cells[c].size(), CellSeed(7, c));
    }
    if (!arena.TryBuildProbes().ok()) {
      state.SkipWithError("probe build failed");
      break;
    }
    benchmark::DoNotOptimize(arena.View(0).probes().IdAt(0));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.data.size()));
}
BENCHMARK(BM_ArenaBuildProbes)->Unit(benchmark::kMillisecond);

void BM_AfTreeClusterBuckets(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  for (auto _ : state) {
    AfTreeOptions options;
    options.t_diff = 5.0;
    options.t_max_points = 1e18;
    AfTree tree(2, options);
    for (int y = 0; y < side; ++y) {
      for (int x = 0; x < side; ++x) {
        tree.InsertBucket(
            Rect(Point{static_cast<double>(x), static_cast<double>(y)},
                 Point{x + 1.0, y + 1.0}),
            (x / 8 + y / 8) % 2 == 0 ? 4.0 : 40.0);
      }
    }
    benchmark::DoNotOptimize(tree.num_clusters());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * side *
                          side);
}
BENCHMARK(BM_AfTreeClusterBuckets)->Arg(32)->Arg(64);

void BM_NestedLoopDetector(benchmark::State& state) {
  const size_t n = 5000;
  const Dataset data = GenerateUniform(n, DomainForDensity(n, 0.3), 13);
  const DetectionParams params{5.0, 4};
  NestedLoopDetector detector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detector.DetectOutliers(data, data.size(), params));
  }
}
BENCHMARK(BM_NestedLoopDetector);

void BM_CellBasedDetector(benchmark::State& state) {
  const size_t n = 5000;
  const Dataset data = GenerateUniform(n, DomainForDensity(n, 0.3), 13);
  const DetectionParams params{5.0, 4};
  CellBasedDetector detector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detector.DetectOutliers(data, data.size(), params));
  }
}
BENCHMARK(BM_CellBasedDetector);

}  // namespace
}  // namespace dod

BENCHMARK_MAIN();
