// Copyright 2026 The DOD Authors.

#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "data/generators.h"
#include "data/geo_like.h"
#include "data/tiger_like.h"

namespace dod::bench {
namespace {

// Points per planted outlier in dense_planted (256 at 4M points).
constexpr size_t kPointsPerPlanted = 15625;
// Radius of the empty disc around each planted outlier, in units of r.
constexpr double kPlantedClearance = 3.0;
// Blocks generated (and, for kLocalized, shuffled) together.
constexpr size_t kArrivalChunk = 64;

// The clustered inputs are drawn from one fixed map each, generated from
// kMapSeed, as a real map is fixed: where the roads or cities of a
// generated map fall moves the cost of a run by tens of percent from one
// map to the next. --seed then moves every point of the map by up to
// kJitter * r in each coordinate, so each seed is a different input with
// the same density profile.
constexpr uint64_t kMapSeed = 2017;
constexpr double kJitter = 0.5;

Dataset Jitter(Dataset map, double radius, uint64_t seed) {
  Rng rng(seed);
  const double amplitude = kJitter * radius;
  for (double& coord : map.mutable_raw()) {
    coord += rng.NextUniform(-amplitude, amplitude);
  }
  return map;
}

// Uniform points at density 2 with isolated outliers planted on a jittered
// lattice: each sits alone in an empty disc of radius 3r, so it has no
// neighbor at all, while every other point expects ~2πr² neighbors.
Dataset GenerateDensePlanted(const WorkloadSpec& spec, uint64_t seed,
                             std::vector<PointId>* planted) {
  const size_t n = spec.points;
  const size_t num_planted = std::max<size_t>(16, n / kPointsPerPlanted);
  const double side = DomainForDensity(n, 2.0).Extent(0);
  const size_t lattice = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(num_planted))));
  const double tile = side / static_cast<double>(lattice);
  const double clearance = kPlantedClearance * spec.radius;
  DOD_CHECK_MSG(tile > 2.0 * clearance, "dense_planted: domain too small");

  Rng rng(seed);
  // Tile t holds planted center t (tiles past num_planted stay unplanted),
  // placed so its disc stays inside the tile.
  std::vector<std::pair<double, double>> centers;
  for (size_t t = 0; t < num_planted; ++t) {
    const double x0 = static_cast<double>(t % lattice) * tile;
    const double y0 = static_cast<double>(t / lattice) * tile;
    centers.emplace_back(x0 + rng.NextUniform(clearance, tile - clearance),
                         y0 + rng.NextUniform(clearance, tile - clearance));
  }

  Dataset data(2);
  data.Reserve(n);
  const double sq_clearance = clearance * clearance;
  while (data.size() < n - num_planted) {
    const double p[2] = {rng.NextUniform(0.0, side),
                         rng.NextUniform(0.0, side)};
    const size_t tx = std::min(lattice - 1, static_cast<size_t>(p[0] / tile));
    const size_t ty = std::min(lattice - 1, static_cast<size_t>(p[1] / tile));
    const size_t t = ty * lattice + tx;
    if (t < num_planted) {
      const double dx = p[0] - centers[t].first;
      const double dy = p[1] - centers[t].second;
      if (dx * dx + dy * dy <= sq_clearance) continue;
    }
    data.Append(p);
  }
  planted->clear();
  for (const auto& [x, y] : centers) {
    const double p[2] = {x, y};
    planted->push_back(data.Append(p));
  }
  return data;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  // References: a batch Run spends most of its time in distance arithmetic
  // (detection, or routing points to cells); a diffuse round in neighbor
  // counts and map lookups; a localized round, with ~5% of its cells dirty,
  // in map lookups and the walk over the whole id map.
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"tiger", Mode::kBatch, Input::kTiger, 250000, 5.0, 4, 32, 0,
       Reference::kArithmetic},
      {"region_ca", Mode::kBatch, Input::kRegionCa, 250000, 5.0, 4, 32, 0,
       Reference::kArithmetic},
      {"dense_planted", Mode::kBatch, Input::kDensePlanted, 250000, 5.0, 4, 8,
       0, Reference::kArithmetic},
      {"stream_diffuse", Mode::kStream, Input::kDiffuse, 32768, 2.0, 4, 0,
       512, Reference::kMixed},
      {"stream_localized", Mode::kStream, Input::kLocalized, 65536, 2.0, 4, 0,
       512, Reference::kMaps},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

WorkloadSpec SmokeSize(const WorkloadSpec& spec) {
  WorkloadSpec small = spec;
  if (spec.mode == Mode::kBatch) {
    // Large enough for dense_planted's 16 planted discs to fit.
    small.points = 40000;
  } else {
    small.points = 8 * spec.block_size / 4;
    small.block_size = spec.block_size / 4;
  }
  return small;
}

Dataset GenerateBatch(const WorkloadSpec& spec, uint64_t seed,
                      std::vector<PointId>* planted) {
  planted->clear();
  switch (spec.input) {
    case Input::kTiger:
      return Jitter(GenerateTigerLike(spec.points, kMapSeed), spec.radius,
                    seed);
    case Input::kRegionCa:
      return Jitter(
          GenerateGeoRegion(GeoRegion::kCalifornia, spec.points, kMapSeed),
          spec.radius, seed);
    case Input::kDensePlanted:
      return GenerateDensePlanted(spec, seed, planted);
    case Input::kDiffuse:
    case Input::kLocalized:
      break;
  }
  DOD_CHECK_MSG(false, "not a batch workload");
  return Dataset(2);
}

StreamSchedule::StreamSchedule(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec),
      window_blocks_(spec.points / spec.block_size),
      // Mean density 1 over the window.
      domain_(std::sqrt(static_cast<double>(spec.points))),
      rng_(seed) {
  DOD_CHECK(spec.mode == Mode::kStream && window_blocks_ > 0);
}

void StreamSchedule::GenerateChunk() {
  const bool localized = spec_.input == Input::kLocalized;
  const double patch = domain_ / 8.0;
  std::vector<std::pair<double, uint64_t>> order;
  for (size_t b = 0; b < kArrivalChunk; ++b) {
    const uint64_t ts = next_ts_++;
    StreamBlock block(2);
    block.timestamp = static_cast<double>(ts);
    const double px = localized ? rng_.NextDouble() * (domain_ - patch) : 0.0;
    const double py = localized ? rng_.NextDouble() * (domain_ - patch) : 0.0;
    const double extent = localized ? patch : domain_;
    for (size_t i = 0; i < spec_.block_size; ++i) {
      const double p[2] = {px + rng_.NextDouble() * extent,
                           py + rng_.NextDouble() * extent};
      block.Add(static_cast<PointId>(ts * spec_.block_size + i), p);
    }
    blocks_.push_back(std::move(block));
    const double jitter = localized ? rng_.NextDouble() * kLateness : 0.0;
    order.emplace_back(static_cast<double>(ts) + jitter, ts);
  }
  std::sort(order.begin(), order.end());
  for (const auto& entry : order) arrivals_.push_back(entry.second);
}

const StreamBlock& StreamSchedule::NextArrival() {
  if (arrivals_.empty()) GenerateChunk();
  const uint64_t ts = arrivals_.front();
  arrivals_.pop_front();
  DOD_CHECK(ts >= first_ts_);
  return blocks_[ts - first_ts_];
}

void StreamSchedule::Forget(uint64_t timestamp) {
  while (first_ts_ < timestamp && !blocks_.empty()) {
    blocks_.pop_front();
    ++first_ts_;
  }
}

Dataset StreamSchedule::Window(uint64_t admitted,
                               std::vector<PointId>* ids) const {
  const uint64_t begin =
      admitted > window_blocks_ ? admitted - window_blocks_ : 0;
  DOD_CHECK(begin >= first_ts_ && admitted <= next_ts_);
  Dataset window(2);
  ids->clear();
  for (uint64_t ts = begin; ts < admitted; ++ts) {
    const StreamBlock& block = blocks_[ts - first_ts_];
    for (size_t i = 0; i < block.ids.size(); ++i) {
      window.Append(block.points[static_cast<PointId>(i)]);
      ids->push_back(block.ids[i]);
    }
  }
  return window;
}

}  // namespace dod::bench
