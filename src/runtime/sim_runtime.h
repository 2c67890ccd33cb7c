// Deterministic-simulation backend of the Runtime seam.
//
// Every method delegates 1:1 to the discrete-event substrate (SimClock,
// EventQueue, SimNetwork) with no added arithmetic and no extra randomness
// draws, so a sim-backed run is byte-identical to the pre-seam code path:
// same seed, same fault plan, same trace timeline — the property every
// chaos/gray/pins gate in scripts/check.sh checks.
//
// The standalone constructor serves unit fixtures that only need time and
// cost accounting (transaction manager, record store, CCMgr tests): it
// owns an empty SimNetwork, so network-facing methods degenerate
// harmlessly (no nodes, nothing reachable).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "runtime/runtime.h"
#include "sim/cost_model.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/sim_clock.h"

namespace dedisys {

class SimRuntime final : public Runtime {
 public:
  /// Full substrate (the Cluster's form): clock, network and event queue
  /// are owned by the host and shared with sim-only drivers (fault
  /// engine, chaos harness, scripted scenarios).
  SimRuntime(SimClock& clock, SimNetwork& net, EventQueue& events)
      : clock_(clock), net_(&net), events_(&events) {}

  /// Network without an external event queue (GCS-level fixtures).
  SimRuntime(SimClock& clock, SimNetwork& net)
      : clock_(clock),
        owned_events_(std::make_unique<EventQueue>(clock)),
        net_(&net),
        events_(owned_events_.get()) {}

  /// Standalone substrate for unit fixtures: time + costs only.  The
  /// internally owned network has no nodes, so membership and messaging
  /// methods return empty/unreachable.
  SimRuntime(SimClock& clock, const CostModel& cost)
      : clock_(clock),
        owned_net_(std::make_unique<SimNetwork>(clock, cost)),
        owned_events_(std::make_unique<EventQueue>(clock)),
        net_(owned_net_.get()),
        events_(owned_events_.get()) {}

  SimRuntime(const SimRuntime&) = delete;
  SimRuntime& operator=(const SimRuntime&) = delete;

  // -- time -------------------------------------------------------------

  [[nodiscard]] SimTime now() const override { return clock_.now(); }
  [[nodiscard]] SimTime local_now(NodeId node) const override {
    return net_->local_now(node);
  }

  // -- cost accounting ----------------------------------------------------

  [[nodiscard]] const CostModel& cost() const override { return net_->cost(); }
  void charge(SimDuration d) override { clock_.advance(d); }
  bool charge_rpc(NodeId from, NodeId to) override {
    return net_->charge_rpc(from, to);
  }
  std::size_t charge_multicast(NodeId from,
                               const std::vector<NodeId>& receivers) override {
    return net_->charge_multicast(from, receivers);
  }
  [[nodiscard]] SimDuration rpc_cost(NodeId from, NodeId to) const override {
    return net_->rpc_cost(from, to);
  }

  // -- deferred scheduling --------------------------------------------------

  void defer_in(SimDuration delay, std::function<void()> fn) override {
    events_->schedule_in(delay, std::move(fn));
  }
  void defer_at(SimTime when, std::function<void()> fn) override {
    events_->schedule_at(when, std::move(fn));
  }
  void drain() override { events_->run_all(); }

  // -- messaging and topology --------------------------------------------------

  [[nodiscard]] const std::vector<NodeId>& nodes() const override {
    return net_->nodes();
  }
  [[nodiscard]] bool reachable(NodeId from, NodeId to) const override {
    return net_->reachable(from, to);
  }
  [[nodiscard]] std::vector<NodeId> membership_set(NodeId from) const override {
    return net_->mutually_reachable_set(from);
  }
  [[nodiscard]] std::vector<NodeId> legacy_membership_set(
      NodeId from) const override {
    return net_->direct_reachable_set(from);
  }
  Delivery delivery_verdict(NodeId from, NodeId to) override {
    return net_->delivery_verdict(from, to);
  }

  /// The seeded multicast reorder draw (formerly GroupCommunication's
  /// maybe_reorder).  Randomness is consumed only while faults are active
  /// and in exactly the pre-seam order, keeping seeded runs byte-identical.
  bool reorder_receivers(NodeId from, std::vector<NodeId>& targets) override {
    if (!net_->faults_active() || targets.size() < 2) return false;
    double p = 0.0;
    for (NodeId t : targets) {
      const LinkFaults& f = net_->effective_faults(from, t);
      if (f.reorder > p) p = f.reorder;
    }
    if (p <= 0.0) return false;
    Rng& rng = net_->fault_rng();
    if (!rng.chance(p)) return false;
    for (std::size_t i = targets.size(); i > 1; --i) {
      std::swap(targets[i - 1], targets[rng.below(i)]);
    }
    return true;
  }

  /// The whole simulated cluster shares one thread: "running on a node"
  /// is a direct call within the sender's stack (which is also what lets
  /// the ambient trace context cross nodes automatically).
  void run_on(NodeId /*node*/, const std::function<void()>& fn) override {
    fn();
  }

  void subscribe(TopologyListener* listener) override {
    net_->subscribe(listener);
  }
  void unsubscribe(TopologyListener* listener) override {
    net_->unsubscribe(listener);
  }

  // enter_section/exit_section: inherited no-ops — single-threaded.

  /// The underlying network, for sim-only drivers (fault engine, chaos).
  [[nodiscard]] SimNetwork& network() { return *net_; }

 private:
  SimClock& clock_;
  std::unique_ptr<SimNetwork> owned_net_;
  std::unique_ptr<EventQueue> owned_events_;
  SimNetwork* net_;
  EventQueue* events_;
};

}  // namespace dedisys
