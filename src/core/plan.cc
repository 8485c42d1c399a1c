// Copyright 2026 The DOD Authors.

#include "core/plan.h"

#include <utility>

#include <algorithm>

#include "dshc/dshc.h"
#include "partition/strategies.h"

namespace dod {

namespace {

// Resolves DodConfig::target_partitions == 0 to the cardinality-derived
// default (see config.h).
size_t ResolveTargetPartitions(const DistributionSketch& sketch,
                               const DodConfig& config) {
  if (config.target_partitions > 0) return config.target_partitions;
  const double cardinality = sketch.EstimatedCardinality();
  return std::clamp<size_t>(static_cast<size_t>(cardinality / 4000.0),
                            size_t{16}, size_t{512});
}

}  // namespace

std::vector<double> MultiTacticPlan::ReducerLoads(int num_reduce_tasks) const {
  std::vector<double> loads(static_cast<size_t>(num_reduce_tasks), 0.0);
  for (size_t i = 0; i < allocation.size(); ++i) {
    loads[static_cast<size_t>(allocation[i])] += estimated_cost[i];
  }
  return loads;
}

namespace {

// Plan for the fixed-algorithm baselines: strategy-specific cells, one
// detector everywhere, allocation policy matching the strategy's goal.
MultiTacticPlan BuildBaselinePlan(const DistributionSketch& sketch,
                                  const DodConfig& config) {
  PlanningContext ctx{config.params,
                      ResolveTargetPartitions(sketch, config)};

  std::unique_ptr<PartitioningStrategy> strategy;
  switch (config.strategy) {
    case StrategyKind::kDomain:
      strategy = std::make_unique<DomainPartitioner>();
      break;
    case StrategyKind::kUniSpace:
      strategy = std::make_unique<UniSpacePartitioner>();
      break;
    case StrategyKind::kDDriven:
      strategy = std::make_unique<DDrivenPartitioner>();
      break;
    case StrategyKind::kCDriven:
      strategy = std::make_unique<CDrivenPartitioner>(config.fixed_algorithm);
      break;
    case StrategyKind::kDmt:
      DOD_CHECK_MSG(false, "DMT handled separately");
      break;
  }

  MultiTacticPlan plan;
  plan.partition_plan = strategy->BuildPlan(sketch, ctx);
  plan.uses_supporting_area = strategy->uses_supporting_area();
  const size_t m = plan.partition_plan.num_cells();
  plan.algorithm_plan.assign(m, config.fixed_algorithm);

  // Per-cell cardinality and refined-cost aux in one pass over the
  // sketch's buckets (each bucket's center lands in exactly one cell).
  std::vector<double> cell_cardinality(m, 0.0);
  std::vector<double> cell_aux(m, 0.0);
  const PartitionRouter router(plan.partition_plan);
  const double scale = sketch.Scale();
  const int dims = sketch.grid.dims();
  for (const MiniBucketGrid::Bucket& bucket : sketch.grid.buckets()) {
    const Rect rect = sketch.grid.BucketRect(bucket.coord);
    const Point center = rect.Center();
    const uint32_t cell = router.RouteCore(center.data());
    const double cardinality = bucket.weight * scale;
    const double density =
        rect.Area() > 0.0 ? cardinality / rect.Area() : 0.0;
    cell_cardinality[cell] += cardinality;
    cell_aux[cell] += RefinedBucketAux(config.fixed_algorithm, cardinality,
                                       density, config.params, dims);
  }
  plan.estimated_cost.resize(m);
  for (size_t i = 0; i < m; ++i) {
    plan.estimated_cost[i] =
        RefinedRegionCost(config.fixed_algorithm, cell_cardinality[i],
                          cell_aux[i], config.params);
  }

  // Domain/uniSpace/DDriven use Hadoop's positional striping; only the
  // cost-driven strategy allocates by estimated workload.
  const PackingPolicy policy = config.strategy == StrategyKind::kCDriven
                                   ? config.packing
                                   : PackingPolicy::kRoundRobin;
  plan.allocation =
      PackBins(plan.estimated_cost, config.num_reduce_tasks, policy).bin_of;
  return plan;
}

// The density-aware multi-tactic plan: DSHC clusters become partitions,
// each gets the Corollary 4.3 algorithm, and partitions are packed onto
// reducers by estimated cost.
MultiTacticPlan BuildDmtPlan(const DistributionSketch& sketch,
                             const DodConfig& config) {
  DshcOptions dshc;
  dshc.target_partitions = ResolveTargetPartitions(sketch, config);
  dshc.detection = config.params;
  std::vector<AggregateFeature> clusters = ClusterMiniBuckets(sketch, dshc);

  std::vector<Rect> cells;
  cells.reserve(clusters.size());
  for (const AggregateFeature& af : clusters) cells.push_back(af.bounds);

  MultiTacticPlan plan;
  plan.partition_plan = PartitionPlan(sketch.grid.domain(),
                                      config.params.radius, std::move(cells));
  plan.uses_supporting_area = true;

  const size_t m = clusters.size();
  plan.algorithm_plan.resize(m);
  plan.estimated_cost.resize(m);
  for (size_t i = 0; i < m; ++i) {
    PartitionStats stats;
    stats.dims = sketch.grid.dims();
    stats.area = clusters[i].bounds.Area();
    stats.cardinality = static_cast<size_t>(clusters[i].num_points + 0.5);
    plan.algorithm_plan[i] = SelectAlgorithm(stats, config.params);
    plan.estimated_cost[i] =
        PlanningCost(plan.algorithm_plan[i], stats, config.params);
  }

  plan.allocation =
      PackBins(plan.estimated_cost, config.num_reduce_tasks, config.packing)
          .bin_of;
  return plan;
}

}  // namespace

MultiTacticPlan BuildMultiTacticPlan(const DistributionSketch& sketch,
                                     const DodConfig& config) {
  if (config.strategy == StrategyKind::kDmt) {
    return BuildDmtPlan(sketch, config);
  }
  return BuildBaselinePlan(sketch, config);
}

}  // namespace dod
