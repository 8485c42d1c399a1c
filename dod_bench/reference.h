// Copyright 2026 The DOD Authors.
//
// The unit of the gated latency and throughput metrics ("ref"): a fixed
// piece of work timed between the measured operations of a run.
//
// The hosts this benchmark runs on are shared VMs whose speed drifts by
// tens of percent over minutes as co-tenants contend for cores, caches
// and memory. Dividing an operation's time by the reference's median time
// in the same run cancels most of that drift, while any change to the
// library stays in the numerator. The reference must slow down with the
// operations it divides, so each workload's reference is made of the kinds
// of work its operations do (README.md, "The unit ref"):
//
//  * distance arithmetic: the oracle (oracle.h) over a fixed 40k-point
//    uniform dataset, grid cells and distance tests like detection and a
//    round's neighbor counts;
//  * scattered lookups in a 512k-entry hash table, larger than a core's
//    share of the cache, like the service's id and cell maps;
//  * walks over every entry of a 64k-entry hash table, like the service's
//    per-round pass over its id map.
//
// Contention for the shared cache and memory slows the last two more than
// arithmetic, and the stream rounds with them: against the oracle alone,
// stream_diffuse rounds slowed ~1.5 times as much as the reference.
//
// It runs on as many threads as the measured operation. It is benchmark
// code over data from the standard library's generator and containers, so
// no change to the pipeline or the streaming service can move it.

#ifndef DOD_BENCH_REFERENCE_H_
#define DOD_BENCH_REFERENCE_H_

#include <cstdint>
#include <unordered_map>

#include "common/dataset.h"

namespace dod::bench {

// What a workload's reference task is made of.
enum class Reference {
  kArithmetic,  // the oracle
  kMixed,       // the oracle, then the scattered lookups
  kMaps,        // the table walks, then the scattered lookups
};

class ReferenceTask {
 public:
  explicit ReferenceTask(Reference kind);

  // Runs the task once on each of `threads` threads; returns the wall time
  // until all of them finish, in seconds.
  double Time(int threads);

  // The task's single-threaded time on the host the benchmark was calibrated
  // on (a 4-vCPU Xeon VM; the fastest of ~20k runs there). setup_s, which
  // must be in seconds, is converted with it.
  double host_seconds() const;

  // Resident memory the task's data added when it was built, in MB; the
  // benchmark takes it out of the process's peak RSS.
  double resident_mb() const { return resident_mb_; }

 private:
  // One thread's run; returns a value derived from the work so it cannot
  // be optimized away.
  uint64_t Work() const;

  Reference kind_;
  Dataset points_;                                 // oracle input
  std::unordered_map<uint32_t, uint32_t> table_;   // scattered lookups
  std::unordered_map<uint32_t, uint32_t> walked_;  // walks
  double resident_mb_ = 0.0;
  uint64_t sink_ = 0;
};

}  // namespace dod::bench

#endif  // DOD_BENCH_REFERENCE_H_
