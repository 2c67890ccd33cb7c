// Cluster observability: aggregated metrics snapshots.
//
// Pulls together the statistics the individual services already track
// (database I/O, replication propagation, constraint validations, threat
// counts) into one structure that tests, benchmarks and operators can
// inspect — the runtime-monitoring face of the middleware.
//
// Each counter group is described once, as a {name, member, reader} table
// (kNodeCounters, kFaultCounters): collect_metrics() fills the snapshot
// from it, and the JSON and Prometheus exporters (obs_export.h) walk the
// same table, so a counter added here reaches all three.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "middleware/cluster.h"

namespace dedisys {

struct NodeMetrics {
  NodeId node;
  SystemMode mode = SystemMode::Healthy;
  std::size_t db_reads = 0;
  std::size_t db_writes = 0;
  std::size_t db_deletes = 0;
  std::size_t updates_propagated = 0;
  std::size_t backups_applied = 0;
  std::size_t history_records = 0;
  std::size_t stale_skipped = 0;
  std::size_t validations = 0;
  std::size_t evaluations_skipped = 0;
  std::size_t evaluations_proven = 0;
  std::size_t threats_detected = 0;
  std::size_t threats_accepted = 0;
  std::size_t threats_rejected = 0;
  std::size_t violations = 0;
};

/// One per-node counter: its export name, its NodeMetrics field and how to
/// read it from a live node.  Table order is the export order.
struct NodeCounter {
  const char* name;
  std::size_t NodeMetrics::*member;
  std::size_t (*read)(DedisysNode&);
};

inline constexpr NodeCounter kNodeCounters[] = {
    {"db_reads", &NodeMetrics::db_reads,
     [](DedisysNode& n) { return n.db().read_count(); }},
    {"db_writes", &NodeMetrics::db_writes,
     [](DedisysNode& n) { return n.db().write_count(); }},
    {"db_deletes", &NodeMetrics::db_deletes,
     [](DedisysNode& n) { return n.db().delete_count(); }},
    {"updates_propagated", &NodeMetrics::updates_propagated,
     [](DedisysNode& n) { return n.replication().stats().updates_propagated; }},
    {"backups_applied", &NodeMetrics::backups_applied,
     [](DedisysNode& n) { return n.replication().stats().backups_applied; }},
    {"history_records", &NodeMetrics::history_records,
     [](DedisysNode& n) { return n.replication().stats().history_records; }},
    {"stale_skipped", &NodeMetrics::stale_skipped,
     [](DedisysNode& n) { return n.replication().stats().stale_skipped; }},
    {"validations", &NodeMetrics::validations,
     [](DedisysNode& n) { return n.ccmgr().stats().validations; }},
    {"evaluations_skipped", &NodeMetrics::evaluations_skipped,
     [](DedisysNode& n) { return n.ccmgr().stats().evaluations_skipped; }},
    {"evaluations_proven", &NodeMetrics::evaluations_proven,
     [](DedisysNode& n) { return n.ccmgr().stats().evaluations_proven; }},
    {"threats_detected", &NodeMetrics::threats_detected,
     [](DedisysNode& n) { return n.ccmgr().stats().threats_detected; }},
    {"threats_accepted", &NodeMetrics::threats_accepted,
     [](DedisysNode& n) { return n.ccmgr().stats().threats_accepted; }},
    {"threats_rejected", &NodeMetrics::threats_rejected,
     [](DedisysNode& n) { return n.ccmgr().stats().threats_rejected; }},
    {"violations", &NodeMetrics::violations,
     [](DedisysNode& n) { return n.ccmgr().stats().violations; }},
};

/// Cluster-wide fault-tolerance counters: the per-message fault outcomes
/// of the network, the GCS retry/dedup machinery and 2PC recovery.
struct FaultToleranceMetrics {
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;
  std::uint64_t messages_delayed = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t gc_retries = 0;
  std::uint64_t gc_gave_up = 0;
  std::uint64_t gc_duplicates_suppressed = 0;
  std::uint64_t gc_reordered = 0;
  std::uint64_t tx_commits = 0;
  std::uint64_t tx_aborts = 0;
  std::uint64_t tx_presumed_aborts = 0;
  std::uint64_t tx_in_doubt = 0;
};

/// One cluster-wide fault-tolerance count, described like NodeCounter.
/// `gauge` marks a current count (exported as a gauge) rather than a
/// lifetime total.
struct FaultCounter {
  const char* name;
  std::uint64_t FaultToleranceMetrics::*member;
  std::uint64_t (*read)(Cluster&);
  bool gauge = false;
};

/// The sim network's fault counters; all zero on the threaded backend,
/// which applies no faults and has no sim network.
inline SimNetwork::FaultStats network_fault_stats(Cluster& c) {
  if (c.config().backend != RuntimeBackend::Sim) return {};
  return c.sim().network.fault_stats();
}

inline constexpr FaultCounter kFaultCounters[] = {
    {"messages_dropped", &FaultToleranceMetrics::messages_dropped,
     [](Cluster& c) { return network_fault_stats(c).messages_dropped; }},
    {"messages_duplicated", &FaultToleranceMetrics::messages_duplicated,
     [](Cluster& c) { return network_fault_stats(c).messages_duplicated; }},
    {"messages_delayed", &FaultToleranceMetrics::messages_delayed,
     [](Cluster& c) { return network_fault_stats(c).messages_delayed; }},
    {"crashes", &FaultToleranceMetrics::crashes,
     [](Cluster& c) { return network_fault_stats(c).crashes; }},
    {"restarts", &FaultToleranceMetrics::restarts,
     [](Cluster& c) { return network_fault_stats(c).restarts; }},
    {"gc_retries", &FaultToleranceMetrics::gc_retries,
     [](Cluster& c) { return c.gc().stats().retries; }},
    {"gc_gave_up", &FaultToleranceMetrics::gc_gave_up,
     [](Cluster& c) { return c.gc().stats().gave_up; }},
    {"gc_duplicates_suppressed",
     &FaultToleranceMetrics::gc_duplicates_suppressed,
     [](Cluster& c) { return c.gc().stats().duplicates_suppressed; }},
    {"gc_reordered", &FaultToleranceMetrics::gc_reordered,
     [](Cluster& c) { return c.gc().stats().reordered; }},
    {"tx_commits", &FaultToleranceMetrics::tx_commits,
     [](Cluster& c) { return c.tx().stats().commits; }},
    {"tx_aborts", &FaultToleranceMetrics::tx_aborts,
     [](Cluster& c) { return c.tx().stats().aborts; }},
    {"tx_presumed_aborts", &FaultToleranceMetrics::tx_presumed_aborts,
     [](Cluster& c) { return c.tx().stats().presumed_aborts; }},
    {"tx_in_doubt", &FaultToleranceMetrics::tx_in_doubt,
     [](Cluster& c) -> std::uint64_t { return c.tx().in_doubt_count(); },
     true},
};

struct ClusterMetrics {
  SimTime sim_time = 0;
  std::size_t stored_threat_identities = 0;
  std::size_t stored_threat_occurrences = 0;
  std::size_t live_objects = 0;
  /// Shared constraint-repository query-cache counters (Section 2.2.1).
  std::size_t lookup_searches = 0;
  std::size_t lookup_cache_hits = 0;
  std::size_t lookup_cache_misses = 0;
  FaultToleranceMetrics faults;
  std::vector<NodeMetrics> nodes;

  /// Sums a per-node counter across the cluster.
  template <typename Member>
  [[nodiscard]] std::size_t total(Member member) const {
    std::size_t sum = 0;
    for (const NodeMetrics& n : nodes) sum += n.*member;
    return sum;
  }
};

/// Takes a consistent snapshot of the whole cluster's metrics (inside a
/// protocol section, so threaded clients cannot write mid-read).
inline ClusterMetrics collect_metrics(Cluster& cluster) {
  Runtime::Section section(cluster.runtime());
  ClusterMetrics out;
  out.sim_time = cluster.runtime().now();
  out.stored_threat_identities = cluster.threats().identity_count();
  out.stored_threat_occurrences = cluster.threats().total_occurrences();
  out.live_objects = cluster.directory()->size();
  out.lookup_searches = cluster.constraints().search_count();
  out.lookup_cache_hits = cluster.constraints().cache_hit_count();
  out.lookup_cache_misses = cluster.constraints().cache_miss_count();
  for (const FaultCounter& c : kFaultCounters) {
    out.faults.*c.member = c.read(cluster);
  }
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    DedisysNode& node = cluster.node(i);
    NodeMetrics m;
    m.node = node.id();
    m.mode = node.mode();
    for (const NodeCounter& c : kNodeCounters) m.*c.member = c.read(node);
    out.nodes.push_back(m);
  }
  return out;
}

/// Human-readable rendering (examples, operator tooling).
inline std::string render_metrics(const ClusterMetrics& m) {
  std::string out;
  out += "sim time: " + std::to_string(m.sim_time / 1000) + " ms, objects: " +
         std::to_string(m.live_objects) + ", threats: " +
         std::to_string(m.stored_threat_identities) + " (" +
         std::to_string(m.stored_threat_occurrences) + " occurrences)\n";
  for (const NodeMetrics& n : m.nodes) {
    out += "  node " + to_string(n.node) + " [" + to_string(n.mode) + "]" +
           " db r/w/d=" + std::to_string(n.db_reads) + "/" +
           std::to_string(n.db_writes) + "/" + std::to_string(n.db_deletes) +
           " repl prop/apply=" + std::to_string(n.updates_propagated) + "/" +
           std::to_string(n.backups_applied) +
           " ccm val/thr/rej/viol=" + std::to_string(n.validations) + "/" +
           std::to_string(n.threats_accepted) + "/" +
           std::to_string(n.threats_rejected) + "/" +
           std::to_string(n.violations) + "\n";
  }
  return out;
}

}  // namespace dedisys
