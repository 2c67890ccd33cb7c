// The pluggable execution runtime (docs/runtime.md): backend-equivalence
// of a fault-free workload, the FeatureFlags fan-out through the cluster
// layers, and the threaded backend's concurrency behavior (mailbox rounds,
// nested serve, timers, kernel-lock smoke under concurrent clients and a
// concurrent metrics export) and its refusal of fault injection.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "middleware/admin.h"
#include "middleware/cluster.h"
#include "middleware/metrics.h"
#include "objects/entity.h"
#include "runtime/threaded_runtime.h"
#include "scenarios/evalapp.h"
#include "scenarios/flight.h"
#include "util/errors.h"
#include "util/rng.h"

namespace dedisys {
namespace {

using scenarios::EvalApp;
using scenarios::FlightBooking;

// ---------------------------------------------------------------------------
// Sim vs threaded backend equivalence
// ---------------------------------------------------------------------------

/// Everything a fault-free workload is allowed to observe: transaction
/// outcomes, constraint verdicts, the threat store and the final entity
/// state on every replica.  Timings may differ between backends; none of
/// this may.
struct WorkloadOutcome {
  std::size_t committed = 0;
  std::size_t aborted = 0;
  std::size_t validations = 0;
  std::size_t violations = 0;
  std::size_t threat_identities = 0;
  /// "<object>@<node>" -> "v<version>:<value>" for every local replica.
  std::map<std::string, std::string> replicas;

  bool operator==(const WorkloadOutcome&) const = default;
};

WorkloadOutcome run_workload(RuntimeBackend backend) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.backend = backend;
  Cluster cluster(cfg);
  EvalApp::define_classes(cluster.classes());
  EvalApp::register_constraints(cluster.constraints());
  const std::vector<ObjectId> ids =
      EvalApp::create_entities(cluster.node(0), 4);

  WorkloadOutcome out;
  Rng rng(0xB0075EED);  // same seed on both backends -> same op sequence
  for (int i = 0; i < 60; ++i) {
    DedisysNode& invoker = cluster.node(rng.below(cfg.nodes));
    const ObjectId target = ids[rng.below(ids.size())];
    bool ok;
    switch (rng.below(4)) {
      case 0:
        ok = EvalApp::run_op(invoker, target, "setValue",
                             {Value{"v" + std::to_string(i)}});
        break;
      case 1:
        ok = EvalApp::run_op(invoker, target, "emptySatisfied");
        break;
      case 2:
        ok = EvalApp::run_op(invoker, target, "emptyViolated");
        break;
      default:
        ok = EvalApp::run_op(invoker, target, "emptyThreat");
        break;
    }
    ++(ok ? out.committed : out.aborted);
  }

  for (std::size_t n = 0; n < cfg.nodes; ++n) {
    DedisysNode& node = cluster.node(n);
    out.validations += node.ccmgr().stats().validations;
    out.violations += node.ccmgr().stats().violations;
    for (ObjectId id : ids) {
      if (!node.replication().has_local_replica(id)) continue;
      const Entity& e = node.replication().local_replica(id);
      out.replicas[to_string(id) + "@" + std::to_string(n)] =
          "v" + std::to_string(e.version()) + ":" + as_string(e.get("value"));
    }
  }
  out.threat_identities = cluster.threats().identity_count();
  return out;
}

TEST(RuntimeEquivalence, FaultFreeWorkloadMatchesAcrossBackends) {
  const WorkloadOutcome sim = run_workload(RuntimeBackend::Sim);
  const WorkloadOutcome threaded = run_workload(RuntimeBackend::Threaded);

  // The workload must have exercised something on both sides.
  EXPECT_GT(sim.committed, 0u);
  EXPECT_GT(sim.aborted, 0u);  // emptyViolated ops abort
  EXPECT_FALSE(sim.replicas.empty());

  EXPECT_EQ(sim.committed, threaded.committed);
  EXPECT_EQ(sim.aborted, threaded.aborted);
  EXPECT_EQ(sim.validations, threaded.validations);
  EXPECT_EQ(sim.violations, threaded.violations);
  EXPECT_EQ(sim.threat_identities, threaded.threat_identities);
  EXPECT_EQ(sim.replicas, threaded.replicas);
}

TEST(RuntimeEquivalence, SimBackendIsDeterministic) {
  const WorkloadOutcome a = run_workload(RuntimeBackend::Sim);
  const WorkloadOutcome b = run_workload(RuntimeBackend::Sim);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// FeatureFlags fan-out
// ---------------------------------------------------------------------------

TEST(FeatureFlags, PropagateFromClusterConfigToEveryLayer) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.flags.observability = true;
  cfg.flags.trace_capacity = 128;
  Cluster cluster(cfg);

  EXPECT_TRUE(cluster.obs().enabled());
  EXPECT_EQ(cluster.obs().trace().capacity(), 128u);
}

TEST(FeatureFlags, ObservabilityIsForcedOffOnTheThreadedBackend) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.backend = RuntimeBackend::Threaded;
  cfg.flags.observability = true;  // ignored: the span stack is 1-threaded
  Cluster cluster(cfg);
  EXPECT_FALSE(cluster.obs().enabled());
}

// ---------------------------------------------------------------------------
// ThreadedRuntime unit behavior
// ---------------------------------------------------------------------------

std::vector<NodeId> two_nodes() { return {NodeId{0}, NodeId{1}}; }

TEST(ThreadedRuntimeUnit, RunOnExecutesOnTheTargetWorkerThread) {
  ThreadedRuntime rt(two_nodes(), CostModel{});
  std::thread::id main_id = std::this_thread::get_id();
  std::thread::id ran_on{};
  rt.run_on(NodeId{0}, [&] { ran_on = std::this_thread::get_id(); });
  EXPECT_NE(ran_on, std::thread::id{});
  EXPECT_NE(ran_on, main_id);
}

TEST(ThreadedRuntimeUnit, NestedCrossNodeCallbackDoesNotDeadlock) {
  // node0 -> node1 -> back to node0: the worker blocked in run_on must
  // keep serving its own mailbox (nested serve) or this hangs forever.
  ThreadedRuntime rt(two_nodes(), CostModel{});
  std::atomic<bool> reached{false};
  rt.run_on(NodeId{0}, [&] {
    rt.run_on(NodeId{1}, [&] {
      rt.run_on(NodeId{0}, [&] { reached = true; });
    });
  });
  EXPECT_TRUE(reached.load());
}

TEST(ThreadedRuntimeUnit, RunOnPropagatesExceptions) {
  ThreadedRuntime rt(two_nodes(), CostModel{});
  EXPECT_THROW(
      rt.run_on(NodeId{1}, [] { throw std::runtime_error("boom"); }),
      std::runtime_error);
}

TEST(ThreadedRuntimeUnit, TimersFireInDeadlineOrderAndDrainWaits) {
  ThreadedRuntime rt(two_nodes(), CostModel{});
  std::mutex mu;
  std::vector<int> order;
  auto push = [&](int v) {
    std::lock_guard<std::mutex> lk(mu);
    order.push_back(v);
  };
  rt.defer_in(sim_ms(20), [&] { push(3); });
  rt.defer_in(sim_ms(10), [&] { push(2); });
  rt.defer_in(0, [&] { push(1); });
  rt.drain();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ThreadedRuntimeUnit, NowAdvancesWithWallClock) {
  ThreadedRuntime rt(two_nodes(), CostModel{});
  const SimTime t0 = rt.now();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(rt.now(), t0);
  EXPECT_GE(t0, 0);
}

// ---------------------------------------------------------------------------
// Concurrent clients against a threaded cluster (kernel-lock smoke)
// ---------------------------------------------------------------------------

TEST(ThreadedCluster, ConcurrentClientsOnDisjointObjectsAllCommit) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.backend = RuntimeBackend::Threaded;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());

  std::vector<ObjectId> flights;
  for (int i = 0; i < 3; ++i) {
    flights.push_back(FlightBooking::create_flight(cluster.node(0), 1000));
  }

  constexpr int kSellsPerClient = 25;
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kSellsPerClient; ++i) {
        FlightBooking::sell(cluster.node(static_cast<std::size_t>(c)),
                            flights[static_cast<std::size_t>(c)], 1);
      }
    });
  }
  for (auto& t : clients) t.join();

  for (const ObjectId flight : flights) {
    EXPECT_EQ(FlightBooking::sold(cluster.node(0), flight), kSellsPerClient);
  }
}

/// The object directory is shared by every node.  One client creates and
/// destroys flights at node 0 while another invokes at node 1: each
/// invocation must look its target up inside the runtime section, or the
/// lookup races with the directory insert or erase of a concurrent create
/// or destroy (a data race under TSan, check.sh --threads).
TEST(ThreadedCluster, InvocationsRaceCreateAndDestroyOfOtherObjects) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.backend = RuntimeBackend::Threaded;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());
  const ObjectId flight = FlightBooking::create_flight(cluster.node(0), 1000);

  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  std::int64_t reads = 0;
  std::thread invoker([&] {
    DedisysNode& node = cluster.node(1);
    try {
      while (!done.load(std::memory_order_acquire)) {
        EXPECT_EQ(as_int(node.invoke(TxId{}, flight, "getAvailable")), 1000);
        ++reads;
        started.store(true, std::memory_order_release);
      }
    } catch (const DedisysError& e) {
      ADD_FAILURE() << "invocation failed: " << e.what();
      started.store(true, std::memory_order_release);
    }
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();

  DedisysNode& node = cluster.node(0);
  constexpr int kCycles = 2000;
  try {
    for (int i = 0; i < kCycles; ++i) {
      TxScope tx(node.tx());
      const ObjectId scratch = node.create(tx.id(), "Flight");
      node.destroy(tx.id(), scratch);
      tx.commit();
    }
  } catch (...) {
    done.store(true, std::memory_order_release);
    invoker.join();
    throw;
  }
  done.store(true, std::memory_order_release);
  invoker.join();

  EXPECT_GT(reads, 0);
  EXPECT_EQ(cluster.directory()->size(), 1u);
}

/// Fault injection and the sim substrate exist only on the sim backend.
/// On a threaded cluster both refuse with a typed error before touching
/// any state: the node keeps its replicas and its full view, and the
/// metrics count no fault.
TEST(ThreadedCluster, FaultInjectionAndSimSubstrateAreRefused) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.backend = RuntimeBackend::Threaded;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());
  const ObjectId flight = FlightBooking::create_flight(cluster.node(0), 10);
  ASSERT_TRUE(cluster.node(2).replication().has_local_replica(flight));

  EXPECT_THROW(cluster.inject(fault::Crash{NodeId{2}}), ConfigError);
  EXPECT_THROW((void)cluster.inject(fault::Restart{NodeId{2}}), ConfigError);
  EXPECT_THROW(cluster.inject(fault::split_indices({{0, 1}, {2}})),
               ConfigError);
  EXPECT_THROW((void)cluster.sim(), ConfigError);

  EXPECT_TRUE(cluster.node(2).replication().has_local_replica(flight));
  EXPECT_EQ(cluster.node(2).mode(), SystemMode::Healthy);
  const ClusterMetrics metrics = collect_metrics(cluster);
  EXPECT_EQ(metrics.faults.crashes, 0u);
  EXPECT_EQ(metrics.faults.restarts, 0u);
  EXPECT_EQ(metrics.faults.messages_dropped, 0u);
}

/// The exporters read node, transaction and front-door state that
/// threaded clients write under the kernel lock.  One client sells at
/// node 1 while another thread renders the metrics document: the export
/// must read inside the runtime section, or the two race (a data race
/// under TSan, check.sh --threads).
TEST(ThreadedCluster, MetricsExportRacesNoClient) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.backend = RuntimeBackend::Threaded;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());
  FlightBooking::register_constraints(cluster.constraints());
  constexpr int kSells = 2000;
  const ObjectId flight =
      FlightBooking::create_flight(cluster.node(0), 2 * kSells);
  AdminConsole admin(cluster);

  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  std::size_t exports = 0;
  std::thread exporter([&] {
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_FALSE(admin.metrics_json().empty());
      ++exports;
      started.store(true, std::memory_order_release);
    }
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();

  try {
    for (int i = 0; i < kSells; ++i) {
      FlightBooking::sell(cluster.node(1), flight, 1);
    }
  } catch (...) {
    done.store(true, std::memory_order_release);
    exporter.join();
    throw;
  }
  done.store(true, std::memory_order_release);
  exporter.join();

  EXPECT_GT(exports, 0u);
  EXPECT_EQ(FlightBooking::sold(cluster.node(0), flight), kSells);
}

}  // namespace
}  // namespace dedisys
