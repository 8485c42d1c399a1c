// Copyright 2026 The DOD Authors.
//
// Cluster model and slot scheduling.
//
// The paper's testbed is a 40-node shared-nothing Hadoop cluster with 8 map
// and 8 reduce slots per node (Sec. VI-A). This reproduction executes every
// task for real (so task costs are measured, not assumed) and then derives
// the end-to-end time the same way the cluster would: each stage's duration
// is the makespan of its task costs scheduled onto the available slots, and
// the shuffle is charged at the cluster's aggregate network bandwidth.
//
// This keeps the paper's objective function intact — cost(P(D)) is the
// processing cost of the most expensive partition (Def. 3.4) — while running
// deterministically on a single machine.

#ifndef DOD_MAPREDUCE_CLUSTER_H_
#define DOD_MAPREDUCE_CLUSTER_H_

#include <cstdint>
#include <vector>

namespace dod {

struct ClusterSpec {
  // Hardware shape; defaults mirror the paper's testbed.
  int num_nodes = 40;
  int map_slots_per_node = 8;
  int reduce_slots_per_node = 8;
  // Per-node NIC bandwidth in gigabits/second (paper: 1 Gbps Ethernet).
  double network_gbps = 1.0;
  // Sequential HDFS read bandwidth available to one map slot, MB/s. Each
  // map task is charged its input split's scan time on top of its measured
  // compute time — this is what makes a second full pass over the data
  // (the Domain baseline's verification job) cost real time.
  double disk_read_mbps_per_slot = 100.0;

  int map_slots() const { return num_nodes * map_slots_per_node; }
  int reduce_slots() const { return num_nodes * reduce_slots_per_node; }

  // Aggregate shuffle throughput in bytes/second. All-to-all shuffles are
  // bisection-limited, so we charge the sum of per-node NICs.
  double ShuffleBytesPerSecond() const {
    return num_nodes * network_gbps * 1e9 / 8.0;
  }

  // A small single-machine cluster useful in tests.
  static ClusterSpec Local(int slots) {
    ClusterSpec spec;
    spec.num_nodes = 1;
    spec.map_slots_per_node = slots;
    spec.reduce_slots_per_node = slots;
    return spec;
  }
};

// Greedy list scheduling (Hadoop FIFO): tasks are assigned in order to the
// slot that becomes free first. Returns the per-slot total loads.
std::vector<double> ScheduleLoads(const std::vector<double>& task_costs,
                                  int slots);

// Makespan of the greedy schedule above — the simulated stage duration.
double Makespan(const std::vector<double>& task_costs, int slots);

}  // namespace dod

#endif  // DOD_MAPREDUCE_CLUSTER_H_
