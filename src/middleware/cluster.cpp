#include "middleware/cluster.h"

#include <algorithm>
#include <map>
#include <optional>
#include <type_traits>
#include <utility>
#include <variant>

#include "runtime/sim_runtime.h"
#include "runtime/threaded_runtime.h"
#include "sim/fault_engine.h"
#include "util/errors.h"

namespace dedisys {

Cluster::Cluster(ClusterConfig config) : config_(config) {
  // The trace hub's ambient span stack is single-threaded by design, so
  // observability stays off on the threaded backend regardless of flags.
  if (config_.backend == RuntimeBackend::Sim && config_.flags.observability) {
    obs_.enable(config_.flags.trace_capacity);
  }
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < config_.nodes; ++i) ids.push_back(NodeId{i});
  if (config_.backend == RuntimeBackend::Threaded) {
    runtime_ = std::make_unique<ThreadedRuntime>(ids, config_.cost);
  } else {
    auto sim = std::make_unique<SimRuntime>(config_.cost, ids);
    sim_ = sim.get();
    runtime_ = std::move(sim);
  }
  tm_ = std::make_unique<TransactionManager>(*runtime_);
  tm_->set_observability(&obs_);
  gc_ = std::make_unique<GroupCommunication>(*runtime_);
  gc_->set_observability(&obs_);
  weights_ = std::make_shared<NodeWeights>();
  directory_ = std::make_shared<ObjectDirectory>();
  threat_db_ = std::make_unique<RecordStore>(*runtime_);
  threat_store_ = std::make_unique<ThreatStore>(*threat_db_);
  threat_store_->set_policy(config_.threat_policy);

  NodeOptions options;
  options.protocol = config_.protocol;
  options.with_replication = config_.with_replication;
  options.with_ccm = config_.with_ccm;
  options.keep_history = config_.keep_history;
  options.default_min_degree = config_.default_min_degree;
  options.reconciliation_policy = config_.reconciliation_policy;
  for (std::size_t i = 0; i < config_.nodes; ++i) {
    nodes_.push_back(std::make_unique<DedisysNode>(*this, NodeId{i}, options));
  }

  std::vector<ReplicationManager*> managers;
  managers.reserve(nodes_.size());
  for (auto& n : nodes_) managers.push_back(&n->replication());
  for (auto& n : nodes_) n->replication().connect_peers(managers);

  shard_map_ = std::make_unique<shard::ShardMap>(
      ids, config_.shards == 0 ? 1 : config_.shards);
  front_door_ = std::make_unique<shard::FrontDoor>(*this, *shard_map_,
                                                   config_.shard_policy);
}

Cluster::~Cluster() = default;

ConstraintRepository& Cluster::application_constraints(
    const std::string& name) {
  Runtime::Section section(*runtime_);
  auto it = app_repositories_.find(name);
  if (it == app_repositories_.end()) {
    it = app_repositories_
             .emplace(name, std::make_unique<ConstraintRepository>())
             .first;
    for (auto& n : nodes_) {
      n->ccmgr().register_application(name, it->second.get());
    }
  }
  return *it->second;
}

std::vector<ObjectId> Cluster::objects_of(const std::string& class_name) const {
  Runtime::Section section(*runtime_);  // the directory is shared
  std::vector<ObjectId> out;
  for (ObjectId id : directory_->all_objects()) {
    if (directory_->get(id).class_name == class_name) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

DedisysNode* Cluster::node_by_id(NodeId id) {
  for (auto& n : nodes_) {
    if (n->id() == id) return n.get();
  }
  return nullptr;
}

SimHandles Cluster::sim() {
  if (sim_ == nullptr) {
    throw ConfigError(
        "fault injection and the sim substrate need the sim backend");
  }
  return SimHandles{sim_->clock(), sim_->network(), sim_->events()};
}

void Cluster::inject(const fault::Op& op) {
  SimNetwork& network = sim().network;
  std::visit(
      [&](const auto& o) {
        using T = std::decay_t<decltype(o)>;
        if constexpr (std::is_same_v<T, fault::Partition>) {
          split_ids(o.groups);
        } else if constexpr (std::is_same_v<T, fault::Heal>) {
          do_heal();
        } else if constexpr (std::is_same_v<T, fault::Crash>) {
          if (DedisysNode* n = node_by_id(o.node)) {
            do_crash(*n);
          } else {
            network.apply(o);
          }
        } else if constexpr (std::is_same_v<T, fault::Restart>) {
          inject(o);
        } else {
          // Link faults and gray ops act on the network substrate alone.
          network.apply(o);
        }
      },
      op);
}

std::size_t Cluster::inject(const fault::Restart& op) {
  SimNetwork& network = sim().network;
  if (DedisysNode* n = node_by_id(op.node)) return do_restart(*n);
  network.apply(op);
  return 0;
}

void Cluster::split_ids(std::vector<std::vector<NodeId>> node_groups) {
  last_partition_groups_ = node_groups;
  if (obs_.enabled()) {
    std::string detail;
    for (const auto& g : node_groups) {
      detail += detail.empty() ? "{" : " {";
      for (std::size_t i = 0; i < g.size(); ++i) {
        if (i > 0) detail += ',';
        detail += to_string(g[i]);
      }
      detail += '}';
    }
    obs_.event(runtime_->now(), obs::TraceEventKind::NetworkSplit, {}, {}, {},
               "partition", detail);
  }
  sim_->network().apply(fault::Partition{std::move(node_groups)});
}

void Cluster::do_heal() {
  if (obs_.enabled()) {
    obs_.event(runtime_->now(), obs::TraceEventKind::NetworkHeal, {}, {}, {},
               "heal");
  }
  sim_->network().apply(fault::Heal{});
}

void Cluster::do_crash(DedisysNode& n) {
  // The pause-crash wipes the node's volatile state (in-memory replicas);
  // the durable record store survives for restart recovery.
  n.replication().drop_volatile();
  sim_->network().apply(fault::Crash{n.id()});
}

std::size_t Cluster::do_restart(DedisysNode& n) {
  sim_->network().apply(fault::Restart{n.id()});

  // Coordinator recovery first: any transaction left in doubt by a crash
  // between prepare and commit is presumed aborted, releasing its locks
  // and prepared resources before new work arrives (Section 1.1).
  const std::size_t presumed = tm_->recover_in_doubt();

  // Replica rebuild, in object-id order for determinism: prefer the
  // freshest reachable peer copy; fall back to this node's own durable
  // entity table (last flushed attribute state).
  std::size_t rebuilt = 0;
  std::vector<ObjectId> ids = directory_->all_objects();
  std::sort(ids.begin(), ids.end());
  for (ObjectId id : ids) {
    const ObjectDirectory::Entry& entry = directory_->get(id);
    if (std::find(entry.replicas.begin(), entry.replicas.end(), n.id()) ==
        entry.replicas.end()) {
      continue;
    }
    if (n.replication().has_local_replica(id)) continue;
    std::optional<EntitySnapshot> best;
    for (NodeId peer : runtime_->membership_set(n.id())) {
      if (peer == n.id()) continue;
      DedisysNode* p = node_by_id(peer);
      if (p == nullptr || !p->replication().has_local_replica(id)) continue;
      // State transfer: extract and ship the peer's copy.
      runtime_->charge(config_.cost.state_extraction + config_.cost.rpc_latency);
      const Entity& e = p->replication().local_replica(id);
      if (!best || e.version() > best->version) best = e.snapshot();
    }
    if (!best) {
      auto record = n.db().get("entities", to_string(id));
      if (record) {
        EntitySnapshot snap;
        snap.id = id;
        snap.class_name = entry.class_name;
        snap.attributes = *record;
        auto version = n.db().get("replica_versions", to_string(id));
        if (version) {
          auto it = version->find("version");
          if (it != version->end()) {
            snap.version = static_cast<std::uint64_t>(as_int(it->second));
          }
        }
        best = std::move(snap);
      }
    }
    if (best) {
      runtime_->charge(config_.cost.backup_apply);
      n.replication().adopt_replica(*best);
      ++rebuilt;
    }
  }
  if (obs_.enabled()) {
    obs_.event(runtime_->now(), obs::TraceEventKind::NodeRestarted, n.id(), {},
               {}, "restart",
               "replicas=" + std::to_string(rebuilt) +
                   " presumed_aborts=" + std::to_string(presumed));
  }
  return rebuilt;
}

void Cluster::adopt_fault_engine(FaultEngine& engine) {
  engine.set_observability(&obs_);
  engine.set_sink([this](const fault::Op& op) { inject(op); });
}

Cluster::ReconciliationReport Cluster::reconcile(
    ReplicaConsistencyHandler* replica_handler,
    ConstraintReconciliationHandler* constraint_handler,
    std::size_t coordinator) {
  ReconciliationReport report;
  Runtime::Section section(*runtime_);
  const SimTime reconcile_start = runtime_->now();
  // Root span for the merge protocol: replica reconciliation, threat
  // re-evaluation (whose per-threat spans re-parent to their originating
  // traces) and the mode flip back to Healthy.
  obs::SpanGuard span_guard(&obs_, *runtime_, "reconcile",
                            node(coordinator).id());
  if (obs_.enabled()) {
    obs_.event(reconcile_start, obs::TraceEventKind::ReconcileStart,
               node(coordinator).id(), {}, {}, "reconcile",
               "threat identities=" +
                   std::to_string(threat_store_->identity_count()));
  }

  std::vector<ReplicationManager*> managers;
  managers.reserve(nodes_.size());
  for (auto& n : nodes_) managers.push_back(&n->replication());
  ReplicaReconciler reconciler(managers, *runtime_);

  // Without explicitly recorded link-failure groups (e.g. recovery from a
  // node crash), derive the former partitions from the view memberships
  // the replication managers recorded while degraded: nodes that shared a
  // degraded-era view formed one partition.
  std::vector<std::vector<NodeId>> former = last_partition_groups_;
  if (former.empty()) {
    std::map<std::vector<NodeId>, std::vector<NodeId>> by_membership;
    for (auto& n : nodes_) {
      by_membership[n->replication().degraded_view_members()].push_back(
          n->id());
    }
    for (auto& [membership, group] : by_membership) former.push_back(group);
  }

  // Step 1: replica reconciliation — propagate missed updates between the
  // former partitions and resolve write-write conflicts (Fig. 4.6).
  // Missed updates include the consistency-threat records themselves
  // (Section 5.2); replica reconciliation cannot benefit from identifying
  // identical threats and pays per stored row.
  SimTime t0 = runtime_->now();
  const std::size_t identities = threat_store_->identity_count();
  const std::size_t occurrences = threat_store_->total_occurrences();
  std::size_t threat_rows = identities * 3;
  if (threat_store_->policy() == ThreatHistoryPolicy::FullHistory &&
      occurrences > identities) {
    threat_rows += (occurrences - identities) * 2;
  }
  // Per row: read, transfer, conflict-check against the local threat
  // tables and durably apply on the joining side.
  runtime_->charge(static_cast<SimDuration>(threat_rows) *
                   (config_.cost.db_read + config_.cost.rpc_latency +
                    config_.cost.state_extraction + config_.cost.db_write +
                    config_.cost.backup_apply));
  report.replica = reconciler.reconcile(former, replica_handler);
  report.replica_time = runtime_->now() - t0;

  // Step 2: constraint reconciliation — re-evaluate accepted threats.
  ConstraintConsistencyManager& ccm = node(coordinator).ccmgr();
  auto conflict_query = [&reconciler](ObjectId id) {
    return reconciler.had_conflict(id);
  };
  auto try_rollback = [this, &reconciler,
                       coordinator](const ConsistencyThreat& threat) {
    const ConstraintRegistration* reg =
        constraint_repository_.registration(threat.constraint_name);
    if (reg == nullptr) return false;
    Constraint* constraint = reg->constraint.get();
    DedisysNode& n = node(coordinator);
    auto is_consistent = [&]() {
      ConstraintValidationContext ctx(n.accessor(), n.id(), TxId{});
      ctx.set_context_object(threat.context_object);
      try {
        return constraint->validate(ctx);
      } catch (const DedisysError&) {
        return false;
      }
    };
    return reconciler.try_rollback_search(threat.affected_objects,
                                          is_consistent);
  };

  t0 = runtime_->now();
  report.constraints =
      ccm.reconcile(constraint_handler, conflict_query, try_rollback);
  report.constraint_time = runtime_->now() - t0;

  reconciler.finish();
  for (auto& n : nodes_) n->set_mode(SystemMode::Healthy);
  last_partition_groups_.clear();
  if (obs_.enabled()) {
    obs_.latency("reconcile.replica", report.replica_time);
    obs_.latency("reconcile.constraints", report.constraint_time);
    obs_.latency("reconcile.total", runtime_->now() - reconcile_start);
    obs_.event(runtime_->now(), obs::TraceEventKind::ReconcileEnd,
               node(coordinator).id(), {}, {}, "reconcile",
               "reevaluated=" + std::to_string(report.constraints.reevaluated) +
                   " removed=" +
                   std::to_string(report.constraints.removed_satisfied) +
                   " violations=" +
                   std::to_string(report.constraints.violations) +
                   " conflicts=" + std::to_string(report.replica.conflicts));
  }
  return report;
}

}  // namespace dedisys
