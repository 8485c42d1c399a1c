// Copyright 2026 The DOD Authors.
//
// The benchmark's workloads and their seeded input generators. The
// benchmark owns the generators' use: the library only ever sees the
// generated points (batch datasets or stream blocks). README.md explains
// why each workload exists.

#ifndef DOD_BENCH_WORKLOADS_H_
#define DOD_BENCH_WORKLOADS_H_

#include <cstdint>
#include <deque>
#include <string_view>
#include <vector>

#include "common/dataset.h"
#include "common/random.h"
#include "reference.h"
#include "streaming/streaming_detector.h"

namespace dod::bench {

enum class Mode { kBatch, kStream };

enum class Input {
  kTiger,         // TIGER-like road corridors over sparse countryside
  kRegionCa,      // CA-like settlements: dense cities, sparse rural land
  kDensePlanted,  // uniform density 2 with isolated planted outliers
  kDiffuse,       // stream blocks uniform over the whole window domain
  kLocalized,     // stream blocks in one 1/8-side patch per round
};

struct WorkloadSpec {
  const char* name;
  Mode mode;
  Input input;
  // Batch: dataset size. Stream: window size (window_blocks * block_size).
  size_t points;
  double radius;
  int min_neighbors;
  // Batch: input blocks (map tasks) of the pipeline.
  size_t num_blocks;
  // Stream: points per block.
  size_t block_size;
  // What the reference task its latencies and throughput are divided by is
  // made of: the kinds of work its operations spend their time on.
  Reference reference;
};

// Every workload, in the order `--workload all` runs them.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

// `spec` shrunk for the smoke test.
WorkloadSpec SmokeSize(const WorkloadSpec& spec);

// The batch dataset of `spec` for `seed`. For kDensePlanted, `planted`
// receives the ascending ids of the planted outliers (the known answer);
// it is left empty otherwise.
Dataset GenerateBatch(const WorkloadSpec& spec, uint64_t seed,
                      std::vector<PointId>* planted);

// Seeded block source of a stream workload. Blocks carry consecutive
// timestamps 0, 1, 2, ... (the round they belong to) and fresh ids.
// Arrival order is timestamp order, except that kLocalized jitter-shuffles
// arrivals within `kLateness` (priority = timestamp + U[0, kLateness)), so
// no block ever arrives later than the watermark allows.
class StreamSchedule {
 public:
  static constexpr double kLateness = 4.0;

  StreamSchedule(const WorkloadSpec& spec, uint64_t seed);

  // The next block in arrival order. The reference stays valid until
  // Forget() drops its timestamp.
  const StreamBlock& NextArrival();

  // Generated blocks that have not arrived yet.
  size_t pending_arrivals() const { return arrivals_.size(); }

  // Drops generated blocks with timestamp < `timestamp`.
  void Forget(uint64_t timestamp);

  // The window after `admitted` rounds: the points of blocks
  // [admitted - window_blocks, admitted), with their stream ids in `ids`.
  Dataset Window(uint64_t admitted, std::vector<PointId>* ids) const;

 private:
  void GenerateChunk();

  WorkloadSpec spec_;
  size_t window_blocks_;
  double domain_;
  Rng rng_;
  uint64_t next_ts_ = 0;
  uint64_t first_ts_ = 0;            // timestamp of blocks_.front()
  std::deque<StreamBlock> blocks_;   // generated, timestamp order
  std::deque<uint64_t> arrivals_;    // pending timestamps, arrival order
};

}  // namespace dod::bench

#endif  // DOD_BENCH_WORKLOADS_H_
