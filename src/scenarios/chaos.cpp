#include "scenarios/chaos.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "middleware/admin.h"
#include "middleware/cluster.h"
#include "replication/reconciler.h"
#include "scenarios/evalapp.h"
#include "sim/fault_engine.h"
#include "sim/fault_plan.h"
#include "util/rng.h"

namespace dedisys::scenarios {

namespace {

/// Latest-version-wins resolution that additionally records which objects
/// ever had a write-write conflict (the model-equivalence check skips
/// those: the fault-free workload order and the version order may differ).
class RecordingConflictHandler final : public ReplicaConsistencyHandler {
 public:
  EntitySnapshot reconcile_replicas(
      ObjectId id, const std::vector<EntitySnapshot>& candidates) override {
    conflicted.insert(id);
    return fallback.reconcile_replicas(id, candidates);
  }

  std::set<ObjectId> conflicted;

 private:
  LatestVersionWins fallback;
};

/// P4: every node of the invoker's partition must elect the same write
/// primary for `target`, and that primary must lie inside the partition.
/// A "partition" is the strongly-connected component of mutually reachable
/// nodes: under asymmetric cuts, outbound reachability would lump nodes
/// together that cannot agree on anything.
/// Creates the chaos entities through the sharded front door, spread
/// round-robin across the shards (replicas confined to each shard's node
/// group).  Deterministic: client keys are searched in ascending order for
/// each target shard and batches apply in shard/queue order.
std::vector<ObjectId> create_entities_sharded(Cluster& cluster,
                                              std::size_t count) {
  std::vector<ObjectId> ids;
  ids.reserve(count);
  cluster.front_door().set_outcome_sink([&ids](const shard::Outcome& o) {
    if (o.committed) ids.push_back(o.created);
  });
  const std::size_t shard_count = cluster.shards().shard_count();
  std::uint64_t key = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const shard::ShardId want = i % shard_count;
    while (cluster.shards().shard_of_key(key) != want) ++key;
    shard::Request req;
    req.op = shard::RequestOp::Create;
    req.class_name = "TestEntity";
    req.client = key++;
    cluster.submit(std::move(req));
  }
  cluster.front_door().drain();
  cluster.front_door().set_outcome_sink(nullptr);
  return ids;
}

void check_primary_per_partition(Cluster& cluster, DedisysNode& invoker,
                                 ObjectId target, ChaosResult& result) {
  const std::vector<NodeId> part =
      cluster.sim().network.mutually_reachable_set(invoker.id());
  std::optional<NodeId> primary;
  for (NodeId nid : part) {
    DedisysNode* peer = cluster.node_by_id(nid);
    if (peer == nullptr) continue;
    NodeId elected;
    try {
      elected = peer->replication().execution_node(target, /*is_write=*/true);
    } catch (const DedisysError&) {
      continue;  // this node may not write (e.g. minority, primary-backup)
    }
    if (std::find(part.begin(), part.end(), elected) == part.end()) {
      ++result.primary_violations;  // primary outside the partition
      return;
    }
    if (!primary) {
      primary = elected;
    } else if (!(*primary == elected)) {
      ++result.primary_violations;  // split-brain within one partition
      return;
    }
  }
}

}  // namespace

ChaosResult run_chaos(const ChaosOptions& options) {
  ChaosResult result;

  ClusterConfig config;
  config.nodes = options.nodes;
  config.protocol = options.protocol;
  config.flags = options.flags;
  config.flags.observability = true;  // the timeline is the oracle
  config.shards = options.shards;
  Cluster cluster(config);
  AdminConsole admin(cluster);

  EvalApp::define_classes(cluster.classes());
  EvalApp::register_constraints(cluster.constraints());
  // shards == 1 keeps the legacy full-replication create path so existing
  // seed-pinned timelines stay byte-identical; with more shards the
  // entities enter through the front door, confined to their shard.
  const std::vector<ObjectId> ids =
      options.shards > 1
          ? create_entities_sharded(cluster, options.objects)
          : EvalApp::create_entities(cluster.node(0), options.objects);

  RandomPlanOptions plan_options;
  plan_options.nodes = cluster.sim().network.nodes();
  plan_options.horizon = options.horizon;
  plan_options.events = options.fault_events;
  FaultPlan plan;
  if (options.plan) {
    plan = *options.plan;
  } else if (options.gray) {
    plan = random_gray_plan(options.seed, plan_options);
  } else {
    plan = random_fault_plan(options.seed, plan_options);
  }
  FaultEngine engine(cluster.sim().network, std::move(plan));
  cluster.adopt_fault_engine(engine);

  RecordingConflictHandler recorder;

  auto all_up_and_connected = [&] {
    for (NodeId n : cluster.sim().network.nodes()) {
      if (!cluster.sim().network.is_alive(n)) return false;
    }
    return cluster.sim().network.fully_connected();
  };
  auto needs_reconcile = [&] {
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      if (cluster.node(i).mode() != SystemMode::Healthy) return true;
    }
    return false;
  };
  // Reconciliation runs whenever a heal (or final restart) re-unites the
  // cluster — the paper's lifecycle: degraded mode ends with the repair,
  // and reconciliation re-establishes full consistency before normal
  // operation resumes.
  auto maybe_reconcile = [&] {
    if (!all_up_and_connected() || !needs_reconcile()) return;
    const std::size_t before = cluster.threats().identity_count();
    const Cluster::ReconciliationReport report =
        cluster.reconcile(&recorder, nullptr, 0);
    ++result.reconciles;
    result.threats_reevaluated += report.constraints.reevaluated;
    if (report.constraints.reevaluated < before) {
      result.lost_threats += before - report.constraints.reevaluated;
    }
  };

  // Seeded workload, decoupled from both the plan-shape stream and the
  // per-message fault stream.
  Rng workload(options.seed ^ 0xC7A05C0DE5ULL);
  auto accept_all = std::make_shared<AcceptAllNegotiation>();
  // Fault-free model: last committed value per object and attribute.
  std::map<ObjectId, std::map<std::string, std::string>> model;

  for (std::size_t i = 0; i < options.ops; ++i) {
    engine.poll();
    maybe_reconcile();

    DedisysNode& invoker = cluster.node(workload.below(cluster.size()));
    const ObjectId target = ids[workload.below(ids.size())];
    const std::uint64_t kind = workload.below(4);
    if (!cluster.sim().network.is_alive(invoker.id())) {
      ++result.skipped_node_down;
      continue;
    }
    check_primary_per_partition(cluster, invoker, target, result);

    const std::string value = "w" + std::to_string(i);
    bool committed = false;
    const char* attribute = nullptr;
    if (kind == 0) {
      attribute = "value";
      committed = EvalApp::run_op_negotiated(invoker, target, "setValue",
                                             accept_all, {Value{value}});
    } else if (kind <= 2) {
      attribute = "payload";  // carries a hard constraint: threats when
                              // degraded, negotiated and accepted
      committed = EvalApp::run_op_negotiated(invoker, target, "setPayload",
                                             accept_all, {Value{value}});
    } else {
      committed =
          EvalApp::run_op_negotiated(invoker, target, "emptyThreat",
                                     accept_all);
    }
    if (committed) {
      ++result.committed;
      if (attribute != nullptr) model[target][attribute] = value;
    } else {
      ++result.aborted;
    }
  }

  // Drain the plan: generated plans end with restart + heal + link-fault
  // reset (and gray resets) just past the horizon, so the cluster is whole
  // again.  Flap expansion and explicit plans may schedule actions past
  // that guard; drain those too so no fault stays armed.
  if (!engine.done()) {
    engine.advance_to(options.horizon + 3);
    while (!engine.done()) engine.advance_to(engine.next_at());
  }
  maybe_reconcile();

  result.faults_applied = engine.stats().applied;
  result.conflicts = recorder.conflicted.size();
  result.threats_remaining = cluster.threats().identity_count();

  // Convergence: after reconciliation, every replica of every object holds
  // the same version and attributes.
  for (ObjectId id : ids) {
    std::optional<EntitySnapshot> reference;
    bool divergent = false;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      ReplicationManager& repl = cluster.node(i).replication();
      if (!repl.has_local_replica(id)) continue;
      const EntitySnapshot snap = repl.local_replica(id).snapshot();
      if (!reference) {
        reference = snap;
      } else if (reference->version != snap.version ||
                 reference->attributes != snap.attributes) {
        divergent = true;
      }
    }
    if (divergent) ++result.divergent_objects;

    // Model equivalence: objects that never saw a write-write conflict
    // must end up exactly as a fault-free run of the committed ops would
    // leave them.
    const auto expected = model.find(id);
    if (expected == model.end() || recorder.conflicted.count(id) != 0 ||
        !reference) {
      continue;
    }
    for (const auto& [attribute, want] : expected->second) {
      const auto got = reference->attributes.find(attribute);
      if (got == reference->attributes.end() ||
          !(got->second == Value{want})) {
        ++result.model_mismatches;
      }
    }
  }

  result.timeline = admin.timeline();
  result.metrics_json = admin.metrics_json();
  return result;
}

}  // namespace dedisys::scenarios
