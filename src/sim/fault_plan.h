// Typed fault operations and time-scheduled fault plans.
//
// The paper's failure model (Section 1.1) assumes pause-crash nodes and
// fair-lossy links: messages may be lost, delayed, duplicated or
// reordered, but are never corrupted, and a message resent forever is
// eventually delivered.  A `FaultPlan` makes that model executable: a
// seeded, time-ordered schedule of fault operations — partitions, node
// crashes and restarts, per-link loss/delay/duplication/reorder
// probabilities — that the `FaultEngine` applies against the `SimNetwork`
// as virtual time advances.  The same seed and plan always yield a
// byte-identical event schedule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "util/ids.h"
#include "util/sim_clock.h"

namespace dedisys {

/// One directed link `from -> to`.  Cutting it blocks messages in that
/// direction only; the reverse direction keeps flowing (gray failures:
/// asymmetric partitions, flapping links).
struct OneWayCut {
  NodeId from;
  NodeId to;
};

/// Per-link message fault probabilities (fair-lossy link model).  All
/// probabilities are per message; `delay` is the extra latency charged when
/// a delay fires.  A default-constructed value means a perfect link.
struct LinkFaults {
  double drop = 0.0;        ///< message silently lost
  double duplicate = 0.0;   ///< message delivered twice
  double delay_prob = 0.0;  ///< message delayed by `delay`
  SimDuration delay = 0;    ///< extra latency when a delay fires
  double reorder = 0.0;     ///< multicast receiver order shuffled

  [[nodiscard]] bool any() const {
    return drop > 0.0 || duplicate > 0.0 || (delay_prob > 0.0 && delay > 0) ||
           reorder > 0.0;
  }
};

namespace fault {

/// Split the cluster into the given groups (nodes not mentioned keep their
/// previous group), exactly like the legacy SimNetwork::partition.
struct Partition {
  std::vector<std::vector<NodeId>> groups;
};

/// Pause-crash of a server node: unreachable until restarted.
struct Crash {
  NodeId node;
};

/// Restart of a previously crashed node; it rejoins via the GMS and (when
/// routed through the cluster's restart handler) recovers durable state.
struct Restart {
  NodeId node;
};

/// Repair all link failures: every alive node is mutually reachable.
struct Heal {};

/// Set the cluster-wide default link fault probabilities.
struct SetLinkFaults {
  LinkFaults faults;
};

/// Override the fault probabilities of one directed link.
struct SetLinkFaultsOn {
  NodeId from;
  NodeId to;
  LinkFaults faults;
};

// -- gray failures -----------------------------------------------------------

/// Asymmetric (one-way) partition: cuts the given directed links.  The
/// reverse directions keep delivering, so a node may be able to send where
/// it cannot hear back — the failure mode that breaks naive "who can I
/// reach" view formation.  `Heal` (or `HealLinks{}`) repairs the cuts.
struct AsymPartition {
  std::vector<OneWayCut> cuts;
};

/// Repairs directed link cuts previously installed by `AsymPartition` (or
/// a flap's down phase).  An empty list repairs every cut link.
struct HealLinks {
  std::vector<OneWayCut> cuts;
};

/// Flapping link: the bidirectional link `a <-> b` oscillates between down
/// and up.  Applying the op cuts both directions immediately; the
/// `FaultEngine` then schedules alternating up/down toggles — dwell time
/// `period / 2` plus seeded jitter — until `duration` has elapsed, closing
/// with the link up.  Same plan seed, same toggle schedule.
struct Flap {
  NodeId a;
  NodeId b;
  SimDuration period = sim_ms(20);    ///< one full down+up cycle
  SimDuration duration = sim_ms(100); ///< total flapping window
};

/// Slow-but-alive node: every message leg touching `node` is charged
/// `multiplier` times its nominal cost.  The node stays in views and keeps
/// answering — it is laggy, not dead.  Multiplier 1.0 clears the slowdown.
struct SlowNode {
  NodeId node;
  double multiplier = 1.0;
};

/// Per-replica clock skew: `node`'s local stamps (entity update times that
/// feed the Section 4.2.1 freshness estimation) read `offset` ahead of the
/// shared virtual clock.  Offset 0 clears the skew.  Reconciliation must
/// stay version-based, so convergence is skew-proof.
struct ClockSkew {
  NodeId node;
  SimDuration offset = 0;
};

using Op =
    std::variant<Partition, Crash, Restart, Heal, SetLinkFaults,
                 SetLinkFaultsOn, AsymPartition, HealLinks, Flap, SlowNode,
                 ClockSkew>;

[[nodiscard]] inline const char* op_name(const Op& op) {
  struct Namer {
    const char* operator()(const Partition&) const { return "partition"; }
    const char* operator()(const Crash&) const { return "crash"; }
    const char* operator()(const Restart&) const { return "restart"; }
    const char* operator()(const Heal&) const { return "heal"; }
    const char* operator()(const SetLinkFaults&) const { return "link-faults"; }
    const char* operator()(const SetLinkFaultsOn&) const {
      return "link-faults-on";
    }
    const char* operator()(const AsymPartition&) const { return "asym"; }
    const char* operator()(const HealLinks&) const { return "heal-links"; }
    const char* operator()(const Flap&) const { return "flap"; }
    const char* operator()(const SlowNode&) const { return "slow"; }
    const char* operator()(const ClockSkew&) const { return "skew"; }
  };
  return std::visit(Namer{}, op);
}

/// Human-readable one-line description (trace event detail).
[[nodiscard]] std::string describe(const Op& op);

/// Convenience for tests and benches: builds a Partition op from dense
/// node indices (a Cluster constructs node i as NodeId{i}), so
/// `cluster.inject(fault::split_indices({{0, 1}, {2}}))` names nodes by
/// index.
[[nodiscard]] inline Partition split_indices(
    const std::vector<std::vector<std::size_t>>& groups) {
  Partition p;
  p.groups.reserve(groups.size());
  for (const auto& g : groups) {
    std::vector<NodeId> ids;
    ids.reserve(g.size());
    for (std::size_t i : g) ids.push_back(NodeId{i});
    p.groups.push_back(std::move(ids));
  }
  return p;
}

}  // namespace fault

/// One scheduled fault: apply `op` once simulated time reaches `at`.
struct TimedFault {
  SimTime at = 0;
  fault::Op op;
};

/// A deterministic schedule of fault operations.  `seed` drives every
/// probabilistic per-message decision taken while the plan is active.
struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<TimedFault> actions;

  FaultPlan& add(SimTime at, fault::Op op) {
    actions.push_back(TimedFault{at, std::move(op)});
    return *this;
  }

  [[nodiscard]] bool empty() const { return actions.empty(); }
  [[nodiscard]] std::size_t size() const { return actions.size(); }

  /// Orders the schedule by time (stable, so equal-time actions keep their
  /// insertion order).  The engine requires a sorted plan.
  void sort();
};

/// Knobs for `random_fault_plan` and `random_gray_plan`.
struct RandomPlanOptions {
  std::vector<NodeId> nodes;        ///< cluster membership (required)
  SimTime horizon = sim_ms(500);    ///< faults are scheduled in [0, horizon)
  std::size_t events = 8;           ///< number of scheduled fault actions
  double max_drop = 0.25;
  double max_duplicate = 0.20;
  double max_delay_prob = 0.25;
  SimDuration max_delay = sim_us(2000);
  double max_reorder = 0.25;
  // -- gray knobs (consumed by random_gray_plan only) ----------------------
  double max_slow_multiplier = 4.0;        ///< SlowNode in (1, max]
  SimDuration max_clock_skew = sim_ms(5);  ///< |ClockSkew::offset| bound
  SimDuration min_flap_period = sim_ms(4);
  SimDuration max_flap_period = sim_ms(24);
  SimDuration max_flap_duration = sim_ms(80);
};

/// Generates a seeded random fault plan over the given nodes: partition
/// flapping, crash/restart pairs (at most one node down at a time) and
/// link-fault episodes.  The plan always ends — just past the horizon —
/// with a restart of any still-crashed node, a heal, and a reset of all
/// link faults, so a harness can reconcile afterwards.
[[nodiscard]] FaultPlan random_fault_plan(std::uint64_t seed,
                                          const RandomPlanOptions& options);

/// Like `random_fault_plan`, but the op mix additionally draws gray
/// failures: asymmetric one-way cuts, flapping links, slow-but-alive nodes
/// and per-replica clock skew.  The closing sequence restores everything —
/// crashed node restarted, links healed (including one-way cuts), link
/// faults cleared, slow multipliers and skews reset — so a harness can
/// reconcile and check convergence afterwards.
[[nodiscard]] FaultPlan random_gray_plan(std::uint64_t seed,
                                         const RandomPlanOptions& options);

/// Text round-trip for fault plans, used by the shrinker's regression seed
/// corpus (tests/gray_corpus/*.plan).  Format: a `seed N` line followed by
/// one `at <us> <op> <args>` line per action; `plan_from_text` throws
/// ConfigError on malformed input.
[[nodiscard]] std::string plan_to_text(const FaultPlan& plan);
[[nodiscard]] FaultPlan plan_from_text(const std::string& text);

}  // namespace dedisys
