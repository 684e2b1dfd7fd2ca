/// \file
/// \brief Host NUMA topology: detection, worker→node placement, pinning.
///
/// The B-LOG machine (§6) assumes work distribution that respects the
/// interconnect: a freed processor should acquire a chain from a nearby
/// memory before paying a cross-link copy. On multi-socket hosts the
/// software analogue is NUMA awareness — know which cores share a memory
/// node and place the executor's pool threads round-robin across nodes.
/// Detection reads `/sys/devices/system/node`; anything else
/// (single-socket hosts, non-Linux platforms, containers hiding sysfs)
/// degrades to a single node covering every CPU, in which case the pool
/// skips placement and pinning.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace blog::parallel {

/// One NUMA node: its sysfs id and the CPUs it owns.
struct NumaNode {
  /// Node id as named by sysfs (`node<id>`); dense 0..n-1 after detection.
  unsigned id = 0;
  /// Logical CPU ids on this node (parsed from `cpulist`).
  std::vector<unsigned> cpus;
};

/// The host's node layout plus the worker→node placement rule.
///
/// Workers are placed round-robin across nodes (`node_of_worker`), so any
/// worker count spreads evenly.
class Topology {
 public:
  /// An empty topology behaves as one node with one CPU.
  Topology() = default;
  /// Build from an explicit node list (tests, fakes).
  explicit Topology(std::vector<NumaNode> nodes) : nodes_(std::move(nodes)) {}

  /// Number of NUMA nodes (>= 1; an empty node list reads as 1).
  [[nodiscard]] unsigned node_count() const {
    return nodes_.empty() ? 1u : static_cast<unsigned>(nodes_.size());
  }
  /// True when placement cannot matter (one node — the fallback).
  [[nodiscard]] bool single_node() const { return node_count() <= 1; }
  /// The detected nodes (empty for the fallback topology).
  [[nodiscard]] const std::vector<NumaNode>& nodes() const { return nodes_; }
  /// Round-robin worker placement: worker `w` lives on node `w % nodes`.
  [[nodiscard]] unsigned node_of_worker(unsigned worker) const {
    return worker % node_count();
  }
  /// CPUs of `node` (empty for the fallback topology: no pinning info).
  [[nodiscard]] const std::vector<unsigned>& cpus_of(unsigned node) const;

  /// Detect the host topology from `/sys/devices/system/node` (Linux).
  /// Nodes without CPUs (CXL/HBM memory-only nodes) are skipped. Returns
  /// the single-node fallback when sysfs is absent or unparsable.
  static Topology detect();

  /// The process-wide detected topology (detected once, then cached).
  static const Topology& system();

 private:
  std::vector<NumaNode> nodes_;
};

/// Parse a sysfs cpulist string ("0-3,8,10-11") into CPU ids. Malformed
/// input yields the CPUs parsed up to that point (best effort).
std::vector<unsigned> parse_cpulist(const std::string& s);

/// Pin the *calling* thread to the CPUs of `node`. Best effort: returns
/// false (and changes nothing) on non-Linux platforms, on the fallback
/// topology, or when the affinity syscall is refused (e.g. a cpuset-
/// restricted container).
bool pin_current_thread_to_node(const Topology& topo, unsigned node);

/// Human-readable CPU model name (from `/proc/cpuinfo`; empty when
/// unavailable). Recorded in BENCH_*.json host metadata so baselines can
/// be interpreted across heterogeneous machines.
std::string cpu_model_name();

}  // namespace blog::parallel
