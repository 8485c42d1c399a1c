// Copyright 2026 The DOD Authors.
//
// Multi-tactic plan serialization. The preprocessing job's outputs — the
// partition plan to the mappers, the algorithm plan to the reducers, the
// allocation plan to the partitioner (Fig. 6) — are handed between jobs as
// small artifacts. This module writes them as a line-oriented text format
// so plans can be inspected, diffed and archived (dod_cli --plan-out).
//
// Format:
//   dod-plan v1
//   dims <d> radius <r> support <0|1>
//   domain <lo...> <hi...>
//   cells <m>
//   <m> x: cell <lo...> <hi...> alg <nested_loop|cell_based|brute_force>
//           reducer <r> cost <c>

#ifndef DOD_CORE_PLAN_IO_H_
#define DOD_CORE_PLAN_IO_H_

#include <string>

#include "common/status.h"
#include "core/plan.h"

namespace dod {

// Human-readable serialization of the full plan.
std::string SerializePlan(const MultiTacticPlan& plan);

// SerializePlan into the file at `path` (dod_cli --plan-out).
Status WritePlanFile(const MultiTacticPlan& plan, const std::string& path);

}  // namespace dod

#endif  // DOD_CORE_PLAN_IO_H_
