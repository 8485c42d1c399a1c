// Copyright 2026 The DOD Authors.
//
// Micro-benchmarks (google-benchmark) of the hot primitives: distance
// kernels, grid hashing, router lookups, AF-tree insertion, and the
// centralized detectors at fixed size.

#include <benchmark/benchmark.h>

#include "common/distance.h"
#include "data/generators.h"
#include "detection/cell_based.h"
#include "detection/grid.h"
#include "detection/nested_loop.h"
#include "dshc/af_tree.h"
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
