// Copyright 2026 The DOD Authors.
//
// bench_diff: compares dod_bench result sets of a parent commit and a
// change, workload by workload and end-to-end metric by metric.
//
//   bench_diff --benchmark BENCHMARK.json --parent p1.json p2.json ...
//              --change c1.json c2.json ...
//
// Each file is one result set (dod_bench --workload all --out) or a file of
// several under "sets" (the committed baseline). Give at least ten sets per
// side, run alternately with the same seeds: runs are paired by seed (the
// k-th parent run of a seed with the k-th change run of it), and runs
// without a partner are reported and left out of the win count.
//
// For each workload x metric it prints both sides' median and quartiles,
// the fraction of pairs the change wins, and a verdict:
//   improved    at least ten pairs, the change wins >= 9/10 of them, and
//               the medians differ by more than the parent's quartile
//               spread;
//   unresolved  the spread of either side exceeds the metric's bound, and
//               not every change run beats every parent run;
//   regressed   the change's median is worse than the parent's by more than
//               the bound BENCHMARK.json fixes;
//   no worse    otherwise.
// It also reports whether the work counters of same-seed runs repeat
// exactly. Exits 1 on any regression or any rise in failed_frac.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_stats.h"
#include "observability/json.h"

namespace dod::bench {
namespace {

struct Bound {
  std::string name;
  bool higher_is_better = false;
  double bound = 0.0;
};

// One workload's end-to-end record from one result set.
struct Sample {
  double seed = 0;
  double failed_frac = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, double> counters;
};

// workload -> samples in set order, plus the workloads in first-seen order.
struct Side {
  std::vector<std::string> workloads;
  std::map<std::string, std::vector<Sample>> samples;
};

Result<JsonValue> ReadJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  Result<JsonValue> parsed = JsonValue::Parse(text.str());
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " + parsed.status().message());
  }
  return parsed;
}

Status AddSet(const JsonValue& set, const std::string& path, Side* side) {
  if (!set.is_object() || !set.Get("runs").is_array()) {
    return Status::InvalidArgument(path + ": not a dod_bench result set");
  }
  for (const JsonValue& run : set.Get("runs").array()) {
    if (!run.is_object() || !run.Get("trace").is_number() ||
        run.Get("trace").number_value() != 0) {
      continue;  // per-layer passes carry no end-to-end metrics
    }
    const std::string& workload = run.Get("workload").string_value();
    Sample sample;
    sample.seed = run.Get("seed").number_value();
    sample.failed_frac = run.Get("failed_frac").is_number()
                             ? run.Get("failed_frac").number_value()
                             : 1.0;
    for (const auto& [name, metric] : run.Get("end_to_end").object()) {
      if (metric.Get("value").is_number()) {
        sample.metrics[name] = metric.Get("value").number_value();
      }
    }
    for (const auto& [name, value] : run.Get("counters").object()) {
      if (value.is_number()) sample.counters[name] = value.number_value();
    }
    if (side->samples.count(workload) == 0) {
      side->workloads.push_back(workload);
    }
    side->samples[workload].push_back(std::move(sample));
  }
  return Status::Ok();
}

Status LoadSide(const std::vector<std::string>& paths, Side* side) {
  for (const std::string& path : paths) {
    DOD_ASSIGN_OR_RETURN(const JsonValue doc, ReadJson(path));
    if (doc.is_object() && doc.Get("sets").is_array()) {
      for (const JsonValue& set : doc.Get("sets").array()) {
        DOD_RETURN_IF_ERROR(AddSet(set, path, side));
      }
    } else {
      DOD_RETURN_IF_ERROR(AddSet(doc, path, side));
    }
  }
  return Status::Ok();
}

Result<std::vector<Bound>> LoadBounds(const std::string& path) {
  DOD_ASSIGN_OR_RETURN(const JsonValue doc, ReadJson(path));
  if (!doc.is_object() || !doc.Get("end_to_end").is_array()) {
    return Status::InvalidArgument(path + ": no end_to_end list");
  }
  std::vector<Bound> bounds;
  for (const JsonValue& metric : doc.Get("end_to_end").array()) {
    Bound bound;
    bound.name = metric.Get("name").string_value();
    bound.higher_is_better = metric.Get("better").string_value() == "higher";
    bound.bound = metric.Get("bound").number_value();
    bounds.push_back(bound);
  }
  return bounds;
}

struct Summary {
  double median = 0, q1 = 0, q3 = 0;
};

// Indices (parent, change) of same-seed runs, the k-th parent run of a seed
// with the k-th change run of it.
std::vector<std::pair<size_t, size_t>> PairBySeed(
    const std::vector<Sample>& parent, const std::vector<Sample>& change) {
  std::vector<std::pair<size_t, size_t>> pairs;
  std::vector<bool> taken(change.size(), false);
  for (size_t i = 0; i < parent.size(); ++i) {
    for (size_t j = 0; j < change.size(); ++j) {
      if (!taken[j] && change[j].seed == parent[i].seed) {
        taken[j] = true;
        pairs.emplace_back(i, j);
        break;
      }
    }
  }
  return pairs;
}

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.median = Median(values);
  s.q1 = s.q3 = s.median;
  if (values.size() >= 2) Quartiles(values, &s.q1, &s.q3);
  return s;
}

int Main(int argc, char** argv) {
  std::string benchmark;
  std::vector<std::string> parent_paths, change_paths;
  std::vector<std::string>* list = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--benchmark" && i + 1 < argc) {
      benchmark = argv[++i];
      list = nullptr;
    } else if (arg == "--parent") {
      list = &parent_paths;
    } else if (arg == "--change") {
      list = &change_paths;
    } else if (list != nullptr && arg.rfind("--", 0) != 0) {
      list->push_back(arg);
    } else {
      list = nullptr;
      benchmark.clear();
      break;
    }
  }
  if (benchmark.empty() || parent_paths.empty() || change_paths.empty()) {
    std::fprintf(stderr,
                 "usage: bench_diff --benchmark BENCHMARK.json "
                 "--parent FILE... --change FILE...\n");
    return 2;
  }
  Result<std::vector<Bound>> bounds = LoadBounds(benchmark);
  Side parent, change;
  Status status = bounds.status();
  if (status.ok()) status = LoadSide(parent_paths, &parent);
  if (status.ok()) status = LoadSide(change_paths, &change);
  if (!status.ok()) {
    std::fprintf(stderr, "bench_diff: %s\n", status.ToString().c_str());
    return 2;
  }

  int exit_code = 0;
  std::printf("%-17s %-15s %26s %26s %6s  %s\n", "workload", "metric",
              "parent median [q1, q3]", "change median [q1, q3]", "wins",
              "verdict");
  for (const std::string& workload : parent.workloads) {
    const std::vector<Sample>& p = parent.samples[workload];
    const std::vector<Sample>& c = change.samples[workload];
    if (c.empty()) {
      std::printf("%-17s missing from the change's sets\n", workload.c_str());
      exit_code = 1;
      continue;
    }
    if (p.size() < 10 || c.size() < 10) {
      std::printf("%-17s note: %zu parent / %zu change sets (>= 10 each "
                  "needed to claim a result)\n",
                  workload.c_str(), p.size(), c.size());
    }
    const std::vector<std::pair<size_t, size_t>> pairs = PairBySeed(p, c);
    if (pairs.size() < std::max(p.size(), c.size())) {
      std::printf("%-17s note: %zu parent / %zu change runs have no "
                  "same-seed partner\n",
                  workload.c_str(), p.size() - pairs.size(),
                  c.size() - pairs.size());
    }
    // A missing metric reads NaN, which makes its verdict unresolved.
    const auto values = [](const std::vector<Sample>& samples,
                           const std::string& name) {
      std::vector<double> out;
      for (const Sample& s : samples) {
        const auto it = s.metrics.find(name);
        out.push_back(it == s.metrics.end() ? NAN : it->second);
      }
      return out;
    };
    for (const Bound& bound : bounds.value()) {
      const std::vector<double> pv = values(p, bound.name);
      const std::vector<double> cv = values(c, bound.name);
      const auto better = [&bound](double a, double b) {
        return bound.higher_is_better ? a > b : a < b;
      };
      size_t wins = 0;
      for (const auto& [i, j] : pairs) wins += better(cv[j], pv[i]);
      const Summary ps = Summarize(pv), cs = Summarize(cv);
      const double worse_by =
          (bound.higher_is_better ? ps.median - cs.median
                                  : cs.median - ps.median) /
          ps.median;
      const double spread = std::max((ps.q3 - ps.q1) / ps.median,
                                     (cs.q3 - cs.q1) / cs.median);
      // Every change run reads better than every parent run.
      const auto [p_lo, p_hi] = std::minmax_element(pv.begin(), pv.end());
      const auto [c_lo, c_hi] = std::minmax_element(cv.begin(), cv.end());
      const bool all_better =
          bound.higher_is_better ? *c_lo > *p_hi : *c_hi < *p_lo;
      const char* verdict = "no worse";
      if (!std::isfinite(worse_by) || !std::isfinite(spread)) {
        verdict = "unresolved";
      } else if (pairs.size() >= 10 && wins * 10 >= pairs.size() * 9 &&
                 better(cs.median, ps.median) &&
                 std::fabs(cs.median - ps.median) > ps.q3 - ps.q1) {
        verdict = "improved";
      } else if (all_better) {
        verdict = "no worse";
      } else if (spread > bound.bound) {
        verdict = "unresolved";
      } else if (worse_by > bound.bound) {
        verdict = "regressed";
        exit_code = 1;
      }
      char pcol[64], ccol[64];
      std::snprintf(pcol, sizeof(pcol), "%.4g [%.4g, %.4g]", ps.median, ps.q1,
                    ps.q3);
      std::snprintf(ccol, sizeof(ccol), "%.4g [%.4g, %.4g]", cs.median, cs.q1,
                    cs.q3);
      std::printf("%-17s %-15s %26s %26s %3zu/%-2zu  %s\n", workload.c_str(),
                  bound.name.c_str(), pcol, ccol, wins, pairs.size(), verdict);
    }

    double parent_failed = 0, change_failed = 0;
    for (const Sample& s : p) {
      parent_failed = std::max(parent_failed, s.failed_frac);
    }
    for (const Sample& s : c) {
      change_failed = std::max(change_failed, s.failed_frac);
    }
    if (change_failed > parent_failed) {
      std::printf("%-17s failed_frac rose: %.4g -> %.4g\n", workload.c_str(),
                  parent_failed, change_failed);
      exit_code = 1;
    }
    // Work counters must repeat exactly between same-seed runs of one
    // program; between two programs a difference is reported, not judged.
    size_t differing = 0;
    for (const auto& [i, j] : pairs) {
      differing += p[i].counters != c[j].counters;
    }
    std::printf("%-17s counters: %zu same-seed pairs, %zu differ\n",
                workload.c_str(), pairs.size(), differing);
  }
  return exit_code;
}

}  // namespace
}  // namespace dod::bench

int main(int argc, char** argv) { return dod::bench::Main(argc, argv); }
