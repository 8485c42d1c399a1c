// Copyright 2026 The DOD Authors.

#include "core/plan_io.h"

#include <cstdio>
#include <fstream>

namespace dod {
namespace {

const char* AlgorithmToken(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kNestedLoop:
      return "nested_loop";
    case AlgorithmKind::kCellBased:
      return "cell_based";
    case AlgorithmKind::kBruteForce:
      return "brute_force";
  }
  return "unknown";
}

void AppendCoords(std::string& out, const Point& p) {
  char buf[48];
  for (int d = 0; d < p.dims(); ++d) {
    std::snprintf(buf, sizeof(buf), " %.17g", p[d]);
    out += buf;
  }
}

}  // namespace

std::string SerializePlan(const MultiTacticPlan& plan) {
  const PartitionPlan& partition = plan.partition_plan;
  std::string out = "dod-plan v1\n";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "dims %d radius %.17g support %d\n",
                partition.dims(), partition.radius(),
                plan.uses_supporting_area ? 1 : 0);
  out += buf;
  out += "domain";
  AppendCoords(out, partition.domain().min());
  AppendCoords(out, partition.domain().max());
  out += "\n";
  std::snprintf(buf, sizeof(buf), "cells %zu\n", partition.num_cells());
  out += buf;
  for (size_t i = 0; i < partition.num_cells(); ++i) {
    const GridCell& cell = partition.cell(static_cast<uint32_t>(i));
    out += "cell";
    AppendCoords(out, cell.bounds.min());
    AppendCoords(out, cell.bounds.max());
    out += " alg ";
    out += AlgorithmToken(plan.algorithm_plan[i]);
    std::snprintf(buf, sizeof(buf), " reducer %d cost %.17g\n",
                  plan.allocation[i], plan.estimated_cost[i]);
    out += buf;
  }
  return out;
}

Status WritePlanFile(const MultiTacticPlan& plan, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out << SerializePlan(plan);
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

}  // namespace dod
