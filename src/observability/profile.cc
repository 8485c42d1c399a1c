// Copyright 2026 The DOD Authors.

#include "observability/profile.h"

#include <cstdio>

namespace dod {
namespace {

void AppendDouble(std::string& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

void AppendEscaped(std::string& out, const std::string& text) {
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

std::string ObservabilityReportJson(
    const std::vector<MetricSnapshot>& snapshots,
    const std::vector<PartitionProfile>& profiles) {
  std::string out = "{\"metrics\":";
  out += MetricsSnapshotJson(snapshots);
  out += ",\"partition_profiles\":[";
  bool first = true;
  for (const PartitionProfile& p : profiles) {
    if (!first) out += ',';
    first = false;
    out += "{\"cell\":" + std::to_string(p.cell);
    out += ",\"reduce_task\":" + std::to_string(p.reduce_task);
    out += ",\"algorithm\":\"";
    AppendEscaped(out, p.algorithm);
    out += "\",\"core_points\":" + std::to_string(p.core_points);
    out += ",\"support_points\":" + std::to_string(p.support_points);
    out += ",\"area\":";
    AppendDouble(out, p.area);
    out += ",\"density\":";
    AppendDouble(out, p.density);
    out += ",\"predicted_cost\":";
    AppendDouble(out, p.predicted_cost);
    out += ",\"measured_distance_evals\":" +
           std::to_string(p.measured_distance_evals);
    out += ",\"measured_seconds\":";
    AppendDouble(out, p.measured_seconds);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace dod
