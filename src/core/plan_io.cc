// Copyright 2026 The DOD Authors.

#include "core/plan_io.h"

#include <cstdio>
#include <fstream>
#include <sstream>

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

bool ParseAlgorithmToken(const std::string& token, AlgorithmKind* out) {
  if (token == "nested_loop") {
    *out = AlgorithmKind::kNestedLoop;
  } else if (token == "cell_based") {
    *out = AlgorithmKind::kCellBased;
  } else if (token == "brute_force") {
    *out = AlgorithmKind::kBruteForce;
  } else {
    return false;
  }
  return true;
}

void AppendCoords(std::string& out, const Point& p) {
  char buf[48];
  for (int d = 0; d < p.dims(); ++d) {
    std::snprintf(buf, sizeof(buf), " %.17g", p[d]);
    out += buf;
  }
}

// Token reader that skips '#' comments to end of line.
class TokenReader {
 public:
  explicit TokenReader(const std::string& text) : in_(text) {}

  bool Next(std::string* token) {
    while (in_ >> *token) {
      if (!token->empty() && (*token)[0] == '#') {
        std::string rest;
        std::getline(in_, rest);
        continue;
      }
      return true;
    }
    return false;
  }

  bool NextDouble(double* value) {
    std::string token;
    if (!Next(&token)) return false;
    char* end = nullptr;
    *value = std::strtod(token.c_str(), &end);
    return end != token.c_str() && *end == '\0';
  }

  bool NextInt(long long* value) {
    double d;
    if (!NextDouble(&d)) return false;
    *value = static_cast<long long>(d);
    return true;
  }

  // Reads a literal keyword; false on mismatch or EOF.
  bool Expect(const std::string& keyword) {
    std::string token;
    return Next(&token) && token == keyword;
  }

 private:
  std::istringstream in_;
};

Status ParseError(const std::string& what) {
  return Status::InvalidArgument("plan parse error: " + what);
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

Result<MultiTacticPlan> DeserializePlan(const std::string& text) {
  TokenReader reader(text);
  if (!reader.Expect("dod-plan") || !reader.Expect("v1")) {
    return ParseError("bad header");
  }
  long long dims = 0;
  double radius = 0.0;
  long long support = 1;
  if (!reader.Expect("dims") || !reader.NextInt(&dims) ||
      !reader.Expect("radius") || !reader.NextDouble(&radius) ||
      !reader.Expect("support") || !reader.NextInt(&support)) {
    return ParseError("bad dims/radius/support");
  }
  if (dims < 1 || dims > kMaxDimensions) return ParseError("bad dims value");
  if (radius <= 0.0) return ParseError("bad radius value");

  auto read_point = [&](Point* p) {
    *p = Point(static_cast<int>(dims));
    for (int d = 0; d < dims; ++d) {
      if (!reader.NextDouble(&(*p)[d])) return false;
    }
    return true;
  };

  if (!reader.Expect("domain")) return ParseError("missing domain");
  Point dlo(static_cast<int>(dims)), dhi(static_cast<int>(dims));
  if (!read_point(&dlo) || !read_point(&dhi)) {
    return ParseError("bad domain coords");
  }
  for (int d = 0; d < dims; ++d) {
    if (dlo[d] > dhi[d]) return ParseError("inverted domain");
  }

  long long num_cells = 0;
  if (!reader.Expect("cells") || !reader.NextInt(&num_cells) ||
      num_cells < 1) {
    return ParseError("bad cell count");
  }

  std::vector<Rect> bounds;
  std::vector<AlgorithmKind> algorithms;
  std::vector<int> allocation;
  std::vector<double> costs;
  for (long long i = 0; i < num_cells; ++i) {
    if (!reader.Expect("cell")) return ParseError("missing cell");
    Point lo(static_cast<int>(dims)), hi(static_cast<int>(dims));
    if (!read_point(&lo) || !read_point(&hi)) {
      return ParseError("bad cell coords");
    }
    for (int d = 0; d < dims; ++d) {
      if (lo[d] > hi[d]) return ParseError("inverted cell");
    }
    bounds.push_back(Rect(lo, hi));
    std::string token;
    AlgorithmKind algorithm;
    if (!reader.Expect("alg") || !reader.Next(&token) ||
        !ParseAlgorithmToken(token, &algorithm)) {
      return ParseError("bad algorithm");
    }
    algorithms.push_back(algorithm);
    long long reducer = 0;
    double cost = 0.0;
    if (!reader.Expect("reducer") || !reader.NextInt(&reducer) ||
        !reader.Expect("cost") || !reader.NextDouble(&cost) || reducer < 0) {
      return ParseError("bad reducer/cost");
    }
    allocation.push_back(static_cast<int>(reducer));
    costs.push_back(cost);
  }

  MultiTacticPlan plan;
  plan.partition_plan =
      PartitionPlan(Rect(dlo, dhi), radius, std::move(bounds));
  plan.algorithm_plan = std::move(algorithms);
  plan.allocation = std::move(allocation);
  plan.estimated_cost = std::move(costs);
  plan.uses_supporting_area = support != 0;

  const Status valid = plan.partition_plan.Validate();
  if (!valid.ok()) {
    return Status::InvalidArgument("deserialized plan invalid: " +
                                   valid.ToString());
  }
  return plan;
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
