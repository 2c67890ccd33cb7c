// Cluster-wide feature flags and the execution-backend selector.
//
// Before this header existed, the same toggles (the observability pair
// and `legacy_unidirectional_views`) were declared three times — on
// ClusterConfig, NodeOptions and ChaosOptions — and hand-copied between
// them at every construction site.
// FeatureFlags is the single value type all three embed; copying the whole
// struct is the only propagation step left, so a flag added here reaches
// every layer without further plumbing.
#pragma once

#include <cstddef>

namespace dedisys {

/// Which execution backend a Cluster runs on (see docs/runtime.md).
enum class RuntimeBackend {
  /// Deterministic discrete-event simulation (SimClock + EventQueue +
  /// SimNetwork).  Every chaos, gray and seed-pinned test runs here;
  /// same seed, byte-identical timeline.
  Sim,
  /// Wall-clock execution: one thread per node, real steady_clock time,
  /// lock-guarded per-node mailboxes.  No fault injection, no tracing —
  /// this backend exists to measure real-hardware throughput/latency.
  Threaded,
};

/// Feature toggles shared by ClusterConfig, NodeOptions and ChaosOptions.
struct FeatureFlags {
  /// Structured event tracing + latency histograms (src/obs).  Off by
  /// default: instrumented hot paths then cost a single branch.  Ignored
  /// (forced off) on the threaded backend — the trace hub's ambient span
  /// stack is single-threaded by design.
  bool observability = false;
  /// Ring-buffer capacity of the trace recorder when observability is on.
  std::size_t trace_capacity = 4096;
  /// Pre-gray-failure GMS behavior: derive views from outbound
  /// reachability alone.  Under a one-way link cut this elects two
  /// primaries inside one strongly-connected component; only tests
  /// pinning that regression should set it.
  bool legacy_unidirectional_views = false;
};

/// Backend selection plus the flags — the value type a host embeds when it
/// wants to configure a Runtime wholesale.
struct RuntimeOptions {
  RuntimeBackend backend = RuntimeBackend::Sim;
  FeatureFlags flags;
};

}  // namespace dedisys
