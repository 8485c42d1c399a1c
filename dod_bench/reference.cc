// Copyright 2026 The DOD Authors.

#include "reference.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "oracle.h"

namespace dod::bench {
namespace {

// Oracle: 40k points at density 0.3 (~24 neighbors within r = 5).
constexpr size_t kPoints = 40000;
constexpr double kDensity = 0.3;
// Scattered lookups: table entries (a power of two) and lookups per run.
constexpr uint32_t kTableEntries = 1u << 19;
constexpr uint32_t kLookups = 150000;
// Walks: entries of the walked table and passes over it per run.
constexpr uint32_t kWalkedEntries = 1u << 16;
constexpr int kWalks = 8;
// Scatters consecutive integers over the 32-bit key space.
constexpr uint32_t kKeyMultiplier = 2654435761u;

// Resident memory of this process in MB (0 where /proc is unavailable).
double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  if (!(statm >> size >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace

ReferenceTask::ReferenceTask(Reference kind) : kind_(kind), points_(2) {
  const double before = ResidentMb();
  std::mt19937_64 rng(7);
  if (kind_ != Reference::kMaps) {
    const double side = std::sqrt(kPoints / kDensity);
    points_.Reserve(kPoints);
    for (size_t i = 0; i < kPoints; ++i) {
      const double p[2] = {
          static_cast<double>(rng() >> 11) * 0x1.0p-53 * side,
          static_cast<double>(rng() >> 11) * 0x1.0p-53 * side};
      points_.Append(p);
    }
  }
  // The tables grow by insertion, as when the reference was chosen and
  // measured (README.md). Sized up front instead, with a fifth fewer
  // buckets, stream_localized's latency spread wider in the passes tried.
  if (kind_ != Reference::kArithmetic) {
    for (uint32_t i = 0; i < kTableEntries; ++i) {
      table_.emplace(i * kKeyMultiplier, i);
    }
  }
  if (kind_ == Reference::kMaps) {
    // Inserted in random order, so a walk jumps between scattered nodes.
    std::vector<uint32_t> keys(kWalkedEntries);
    std::iota(keys.begin(), keys.end(), 0u);
    std::shuffle(keys.begin(), keys.end(), rng);
    for (uint32_t key : keys) walked_.emplace(key * kKeyMultiplier, key);
  }
  resident_mb_ = ResidentMb() - before;
}

double ReferenceTask::host_seconds() const {
  switch (kind_) {
    case Reference::kArithmetic:
      return 0.012;
    case Reference::kMixed:
      return 0.019;
    case Reference::kMaps:
      return 0.011;
  }
  return 0.0;
}

uint64_t ReferenceTask::Work() const {
  uint64_t sum = 0;
  if (kind_ != Reference::kMaps) {
    sum += OracleOutliers(points_, 5.0, 4).size();
  }
  if (kind_ == Reference::kMaps) {
    for (int pass = 0; pass < kWalks; ++pass) {
      for (const auto& entry : walked_) sum += entry.second;
    }
  }
  if (kind_ != Reference::kArithmetic) {
    for (uint32_t i = 0; i < kLookups; ++i) {
      // Every key is present: (i * odd) mod 2^19 is a table index.
      sum += table_.find(((i * 40503u) & (kTableEntries - 1)) *
                         kKeyMultiplier)
                 ->second;
    }
  }
  return sum;
}

double ReferenceTask::Time(int threads) {
  std::vector<uint64_t> results(static_cast<size_t>(threads), 0);
  StopWatch watch;
  {
    std::vector<std::jthread> others;  // joined when the scope ends
    for (int t = 1; t < threads; ++t) {
      others.emplace_back(
          [this, &results, t] { results[static_cast<size_t>(t)] = Work(); });
    }
    results[0] = Work();
  }
  const double seconds = watch.ElapsedSeconds();
  for (uint64_t result : results) sink_ ^= result;
  return seconds;
}

}  // namespace dod::bench
