// The pluggable execution runtime: one interface owning the three
// capabilities protocol code used to pull directly from the sim layer —
// time, deferred scheduling and inter-node messaging/cost.
//
// Protocol components (GCS, transaction manager, replication manager,
// CCMgr, persistence, the node kernel) are written against this seam only.
// Two backends implement it:
//
//   * SimRuntime (src/runtime/sim_runtime.h) owns the deterministic
//     SimClock / EventQueue / SimNetwork and delegates 1:1 to them, so a
//     sim-backed run is byte-identical to the pre-seam code path — every
//     chaos, gray and seed-pinned suite stays on it;
//   * ThreadedRuntime (src/runtime/threaded_runtime.h) runs on real
//     steady_clock time with one worker thread per node and lock-guarded
//     mailboxes — the repo's first wall-clock execution surface.
//
// The contract each backend must honor is documented in docs/runtime.md.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "sim/cost_model.h"
#include "util/ids.h"
#include "util/sim_clock.h"

namespace dedisys {

/// Observer of topology changes (the GMS subscribes to drive view changes).
/// Lives at the runtime seam: the sim backend fires it from SimNetwork
/// fault operations; the threaded backend has a static topology and never
/// fires it.
class TopologyListener {
 public:
  virtual ~TopologyListener() = default;
  virtual void on_topology_changed() = 0;
};

/// Per-message delivery decision for one directed link.  The sim backend
/// draws it from the seeded fault generator; the threaded backend always
/// returns the default (delivered, one copy, no extra delay) — real links
/// in one process do not lose messages.
struct Delivery {
  bool delivered = true;       ///< false: the message is lost this attempt
  std::size_t copies = 1;      ///< >1: duplicated in flight
  SimDuration extra_delay = 0; ///< added to the nominal link latency
};

/// Abstract execution runtime.  All durations/timestamps are microseconds:
/// virtual ones on the sim backend, steady_clock ones on the threaded
/// backend.  Charged costs (`charge*`) advance the virtual clock in the
/// sim and are no-ops under wall-clock time — real time passes instead.
class Runtime : public TimeSource {
 public:
  ~Runtime() override = default;

  // -- time -------------------------------------------------------------

  // SimTime now() const  — inherited from TimeSource.

  /// The node's local notion of now (the shared time plus the node's clock
  /// skew on the sim backend; plain now() on the threaded backend).  Feeds
  /// per-replica update stamps, never the schedule itself.
  [[nodiscard]] virtual SimTime local_now(NodeId node) const = 0;

  // -- cost accounting ----------------------------------------------------

  [[nodiscard]] virtual const CostModel& cost() const = 0;

  /// Charges a modeled duration: advances the virtual clock (sim) or does
  /// nothing (threaded — the work itself takes wall time).
  virtual void charge(SimDuration d) = 0;

  /// Charges one point-to-point message; returns false when the
  /// destination is unreachable (the message is lost, not retried).
  virtual bool charge_rpc(NodeId from, NodeId to) = 0;

  /// Charges a synchronous acked multicast from `from` to `receivers`
  /// (self excluded); returns the number of receivers reached.
  virtual std::size_t charge_multicast(NodeId from,
                                       const std::vector<NodeId>& receivers) = 0;

  /// Modeled cost of one point-to-point message (routing and slow-node
  /// scaling included on the sim backend; zero on the threaded backend).
  [[nodiscard]] virtual SimDuration rpc_cost(NodeId from, NodeId to) const = 0;

  // -- deferred scheduling --------------------------------------------------

  /// Runs `fn` (at least) `delay` after now.
  virtual void defer_in(SimDuration delay, std::function<void()> fn) = 0;

  /// Runs `fn` at an absolute timestamp (clamped to now).
  virtual void defer_at(SimTime when, std::function<void()> fn) = 0;

  /// Executes every deferred task, including tasks deferred while
  /// draining.  Sim: drains the event queue; threaded: blocks until the
  /// timer queue is empty and idle.  Must not be called from inside a
  /// protocol section.
  virtual void drain() = 0;

  // -- messaging and topology --------------------------------------------------

  /// All registered nodes, in registration order.
  [[nodiscard]] virtual const std::vector<NodeId>& nodes() const = 0;

  /// Deliverability of `from -> to` (routed around one-way cuts on the sim
  /// backend; always true on the threaded backend).
  [[nodiscard]] virtual bool reachable(NodeId from, NodeId to) const = 0;

  /// Nodes `from` can exchange messages with in both directions, itself
  /// included — the basis for view formation and primary election.
  [[nodiscard]] virtual std::vector<NodeId> membership_set(NodeId from) const = 0;

  /// Draws the fate of one message on the directed link `from -> to`.
  virtual Delivery delivery_verdict(NodeId from, NodeId to) = 0;

  /// Shuffles a multicast's receiver order when a reorder fault is active
  /// on any outgoing link (fair-lossy links do not guarantee FIFO across
  /// receivers); returns whether the order changed.  Fault-free backends
  /// return false without consuming randomness.
  virtual bool reorder_receivers(NodeId from, std::vector<NodeId>& targets) = 0;

  /// Executes `fn` in the context of `node`: a direct call on the sim
  /// backend (the whole cluster shares one thread), a mailbox round on the
  /// threaded backend (the task runs on the node's worker thread; the
  /// caller blocks until it completes, releasing any held protocol section
  /// while waiting).  Exceptions propagate to the caller.
  virtual void run_on(NodeId node, const std::function<void()>& fn) = 0;

  /// Subscribes to topology changes (sim backend only fires them).
  virtual void subscribe(TopologyListener* listener) = 0;
  virtual void unsubscribe(TopologyListener* listener) = 0;

  // -- protocol sections ------------------------------------------------------

  /// Marks a protocol section: a region of shared middleware state
  /// manipulation that must not interleave with other clients'.  No-ops on
  /// the single-threaded sim backend; a re-entrant kernel lock on the
  /// threaded backend.  Senders blocked in run_on release the section so
  /// the receiving worker can take it (see docs/runtime.md).
  virtual void enter_section() {}
  virtual void exit_section() {}

  /// RAII protocol section.
  class Section {
   public:
    explicit Section(Runtime& rt) : rt_(rt) { rt_.enter_section(); }
    ~Section() { rt_.exit_section(); }
    Section(const Section&) = delete;
    Section& operator=(const Section&) = delete;

   private:
    Runtime& rt_;
  };
};

}  // namespace dedisys
