// DeDiSys cluster: execution runtime + node kernels + the reconciliation
// driver (Fig. 4.6).  The backend is pluggable (src/runtime): deterministic
// simulation by default, or wall-clock threads via ClusterConfig::backend.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <vector>

#include "constraints/ccmgr.h"
#include "constraints/repository.h"
#include "constraints/threats.h"
#include "gcs/group_comm.h"
#include "gcs/membership.h"
#include "middleware/node.h"
#include "obs/observability.h"
#include "persist/record_store.h"
#include "replication/protocol.h"
#include "replication/reconciler.h"
#include "runtime/options.h"
#include "runtime/runtime.h"
#include "shard/front_door.h"
#include "shard/policy.h"
#include "shard/shard_map.h"
#include "sim/event_queue.h"
#include "sim/fault_plan.h"
#include "sim/network.h"
#include "tx/tx_manager.h"
#include "util/sim_clock.h"

namespace dedisys {

class FaultEngine;
class SimRuntime;

struct ClusterConfig {
  std::size_t nodes = 3;
  CostModel cost{};
  ReplicationProtocol protocol = ReplicationProtocol::PrimaryPartition;
  /// false = the "No DeDiSys" baseline (independent nodes, no replication).
  bool with_replication = true;
  /// false = no constraint consistency management service.
  bool with_ccm = true;
  /// Replica history capture during degraded mode (Section 5.5.1).
  bool keep_history = true;
  ThreatHistoryPolicy threat_policy = ThreatHistoryPolicy::IdenticalOnce;
  /// Application-wide fallback for static negotiation.
  SatisfactionDegree default_min_degree = SatisfactionDegree::Satisfied;
  /// Business operations on threatened objects during reconciliation.
  ReconciliationBusinessPolicy reconciliation_policy =
      ReconciliationBusinessPolicy::Proceed;
  /// Which execution backend the cluster runs on: deterministic simulation
  /// (default — every seed-pinned suite), or wall-clock worker threads
  /// (benchmarks on real hardware; no fault injection, no tracing).
  RuntimeBackend backend = RuntimeBackend::Sim;
  /// Feature toggles shared with NodeOptions and ChaosOptions (see
  /// runtime/options.h for per-flag semantics).  Observability can also be
  /// enabled later via cluster.obs().enable(); on the threaded backend it
  /// is forced off (the trace hub's span stack is single-threaded).
  FeatureFlags flags;
  /// Replica groups the entity space is partitioned across (1 = the
  /// classic fully-replicated cluster; must not exceed `nodes`).  Each
  /// shard runs the GMS/replication/P4/CCMgr stack over its own node
  /// group; cross-shard transactions ride the cluster-wide 2PC.
  std::size_t shards = 1;
  /// Admission-control tuning of the sharded front door (queue bounds,
  /// batching, TxQ-style fee escalation); see shard/policy.h.
  shard::ShardPolicy shard_policy;
};

/// Narrow view of the deterministic-simulation substrate that SimRuntime
/// owns, for fault injection and chaos/script drivers, so the public
/// cluster surface does not leak backend internals (see
/// docs/fault_injection.md).
struct SimHandles {
  SimClock& clock;
  SimNetwork& network;
  EventQueue& events;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // -- execution runtime --------------------------------------------------------

  /// The pluggable runtime every protocol component runs against.
  Runtime& runtime() { return *runtime_; }

  // -- sim-only substrate (fault injection, chaos/script drivers) --------------

  /// The deterministic-simulation internals behind one narrow handle (the
  /// FaultEngine and the chaos and scripted scenarios are sim-pinned, see
  /// docs/fault_injection.md).  Throws ConfigError on the threaded
  /// backend, which has no such substrate.
  SimHandles sim();

  /// Cluster-wide distributed transaction manager.
  TransactionManager& tx() { return *tm_; }
  GroupCommunication& gc() { return *gc_; }
  ClassRegistry& classes() { return classes_; }
  ConstraintRepository& constraints() { return constraint_repository_; }

  /// Per-application constraint repository (created on first use and
  /// registered with every node's CCMgr).  Constraint names only need to
  /// be unique within one application (Section 5.3).
  ConstraintRepository& application_constraints(const std::string& name);
  ThreatStore& threats() { return *threat_store_; }
  RecordStore& threat_db() { return *threat_db_; }
  NodeWeights& weights() { return *weights_; }
  std::shared_ptr<NodeWeights> weights_ptr() { return weights_; }
  std::shared_ptr<ObjectDirectory> directory() { return directory_; }
  const ClusterConfig& config() const { return config_; }

  /// Observability hub shared by every service of this cluster (trace
  /// recorder + latency histograms); disabled unless configured/enabled.
  obs::Observability& obs() { return obs_; }

  // -- nodes -------------------------------------------------------------------

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  DedisysNode& node(std::size_t index) { return *nodes_.at(index); }
  DedisysNode* node_by_id(NodeId id);

  /// All logical objects of `class_name` (query support for constraints
  /// without a context object, and for re-validation after runtime
  /// constraint changes).
  [[nodiscard]] std::vector<ObjectId> objects_of(
      const std::string& class_name) const;

  // -- sharded front door (value-typed client API) -----------------------------

  /// The shard map partitioning the entity space across replica groups
  /// (one group covering every node when config.shards == 1).
  shard::ShardMap& shards() { return *shard_map_; }

  /// The admission layer: bounded priority queues, fee escalation, load
  /// shedding, batched apply.
  shard::FrontDoor& front_door() { return *front_door_; }

  /// Submits one client request through the front door: routed to its
  /// owning shard (forwarded when mis-addressed), fee-checked, queued or
  /// shed with an explicit reason.
  shard::Submission submit(shard::Request request) {
    return front_door_->submit(std::move(request));
  }

  /// Applies one admission batch per shard; returns requests applied.
  std::size_t pump() { return front_door_->pump(); }

  // -- failure injection ----------------------------------------------------------

  /// Applies one typed fault operation — the one place that decides which
  /// ops take the middleware path: a crash drops volatile replica state, a
  /// restart recovers in-doubt transactions and rebuilds replicas,
  /// partitions and heals are recorded for reconciliation and traced.
  /// Every other op acts on the sim network alone.  Throws ConfigError on
  /// the threaded backend, before touching any state: it applies no faults.
  void inject(const fault::Op& op);

  /// Restart overload: returns the number of replicas rebuilt.
  std::size_t inject(const fault::Restart& op);

  /// Wires a fault engine to this cluster: every action it applies goes
  /// through inject(), and its trace events land in this cluster's
  /// observability hub.
  void adopt_fault_engine(FaultEngine& engine);

  // -- reconciliation (Section 4.4) -------------------------------------------------

  struct ReconciliationReport {
    ReplicaReconcileStats replica;
    ConstraintConsistencyManager::ReconcileStats constraints;
    SimDuration replica_time = 0;
    SimDuration constraint_time = 0;
  };

  /// Runs both reconciliation steps: replica reconciliation (update
  /// propagation + conflict resolution), then constraint reconciliation
  /// (threat re-evaluation + application callbacks).  Nodes return to
  /// Healthy mode afterwards.
  ReconciliationReport reconcile(
      ReplicaConsistencyHandler* replica_handler = nullptr,
      ConstraintReconciliationHandler* constraint_handler = nullptr,
      std::size_t coordinator = 0);

 private:
  /// Typed-op implementations behind inject().
  void split_ids(std::vector<std::vector<NodeId>> node_groups);
  void do_heal();
  void do_crash(DedisysNode& n);
  std::size_t do_restart(DedisysNode& n);

  ClusterConfig config_;
  obs::Observability obs_;
  /// Destroyed after nodes_ (declared before them): node teardown still
  /// unsubscribes GMS listeners through the runtime.
  std::unique_ptr<Runtime> runtime_;
  /// runtime_ itself on the sim backend; null on the threaded backend.
  SimRuntime* sim_ = nullptr;
  std::unique_ptr<TransactionManager> tm_;
  std::unique_ptr<GroupCommunication> gc_;
  std::shared_ptr<NodeWeights> weights_;
  std::shared_ptr<ObjectDirectory> directory_;
  ClassRegistry classes_;
  ConstraintRepository constraint_repository_;
  std::map<std::string, std::unique_ptr<ConstraintRepository>>
      app_repositories_;
  std::unique_ptr<RecordStore> threat_db_;
  std::unique_ptr<ThreatStore> threat_store_;
  std::vector<std::unique_ptr<DedisysNode>> nodes_;
  std::vector<std::vector<NodeId>> last_partition_groups_;
  /// Constructed after nodes_ (needs their ids); pure bookkeeping until
  /// the first submit(), so a shards=1 cluster that never uses the front
  /// door behaves byte-identically to the pre-shard middleware.
  std::unique_ptr<shard::ShardMap> shard_map_;
  std::unique_ptr<shard::FrontDoor> front_door_;
};

}  // namespace dedisys
