// Read-set pruning benchmark.
//
// A "Wide" entity class carries several independent integer attributes,
// each guarded by its own OCL hard invariant that is registered as
// affected by EVERY setter (the conservative registration an application
// writes when it does not want to reason about write-sets itself).
// Exhaustive validation therefore evaluates all invariants on every
// setter call; the static analyzer's read-sets let CCMgr skip all but the
// one invariant that actually reads the written attribute.
//
// After the setter workload, a reconciliation batch of seeded threats is
// driven through each cluster: every stored threat is re-evaluated, with
// or without pruning, so the batch adds the same validations to both rows.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "bench/bench_common.h"
#include "constraints/ocl_constraint.h"
#include "constraints/threats.h"

namespace dedisys {
namespace {

constexpr int kFields = 8;
constexpr std::size_t kEntities = 16;
constexpr std::size_t kOps = 4000;

std::unique_ptr<Cluster> make_wide_cluster(bool pruning) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  auto cluster = std::make_unique<Cluster>(cfg);

  ClassDescriptor& wide = cluster->classes().define("Wide");
  for (int k = 0; k < kFields; ++k) {
    wide.define_property("f" + std::to_string(k), Value{std::int64_t{0}},
                         "int");
  }

  std::vector<AffectedMethod> setters;
  setters.reserve(kFields);
  for (int k = 0; k < kFields; ++k) {
    setters.push_back(AffectedMethod{
        "Wide", MethodSignature{"setF" + std::to_string(k), {"int"}},
        ContextPreparation{}});
  }
  for (int k = 0; k < kFields; ++k) {
    ConstraintRegistration reg;
    reg.constraint = std::make_shared<OclConstraint>(
        "inv" + std::to_string(k), ConstraintType::HardInvariant,
        ConstraintPriority::Tradeable,
        "self.f" + std::to_string(k) + " >= 0");
    reg.context_class = "Wide";
    reg.affected_methods = setters;
    cluster->constraints().register_constraint(std::move(reg));
  }
  analysis::analyze_repository(cluster->constraints(), &cluster->classes());

  for (std::size_t n = 0; n < cfg.nodes; ++n) {
    cluster->node(n).ccmgr().set_pruning(pruning);
  }
  return cluster;
}

double run_setter_workload(Cluster& cluster, std::vector<ObjectId>& ids) {
  DedisysNode& node = cluster.node(0);
  ids.reserve(kEntities);
  for (std::size_t i = 0; i < kEntities; ++i) {
    TxScope tx(node.tx());
    ids.push_back(node.create(tx.id(), "Wide"));
    tx.commit();
  }
  const SimTime start = cluster.sim().clock.now();
  for (std::size_t i = 0; i < kOps; ++i) {
    TxScope tx(node.tx());
    node.invoke(tx.id(), ids[i % ids.size()],
                "setF" + std::to_string(i % kFields),
                {Value{static_cast<std::int64_t>(i)}});
    tx.commit();
  }
  const SimTime elapsed = cluster.sim().clock.now() - start;
  if (elapsed <= 0) return 0;
  return static_cast<double>(kOps) * 1e6 / static_cast<double>(elapsed);
}

/// Seeds one threat per invariant per entity and reconciles the batch.
void run_reconcile_batch(Cluster& cluster, const std::vector<ObjectId>& ids) {
  for (const ObjectId id : ids) {
    for (int k = 0; k < kFields; ++k) {
      ConsistencyThreat t;
      t.constraint_name = "inv" + std::to_string(k);
      t.context_object = id;
      t.degree = SatisfactionDegree::Uncheckable;
      cluster.threats().store(t);
    }
  }
  cluster.node(0).ccmgr().reconcile(nullptr);
}

struct Row {
  double rate = 0;
  std::size_t validations = 0;
  std::size_t skipped = 0;
};

Row run_configuration(bool pruning) {
  auto cluster = make_wide_cluster(pruning);
  std::vector<ObjectId> ids;
  Row row;
  row.rate = run_setter_workload(*cluster, ids);
  run_reconcile_batch(*cluster, ids);
  const auto& stats = cluster->node(0).ccmgr().stats();
  row.validations = stats.validations;
  row.skipped = stats.evaluations_skipped;
  return row;
}

}  // namespace
}  // namespace dedisys

int main(int argc, char** argv) {
  using namespace dedisys;
  bench::Session session(argc, argv);

  const Row off = run_configuration(false);
  const Row on = run_configuration(true);

  bench::print_title(
      "Read-set pruning: " + std::to_string(kFields) +
      " invariants registered on every setter of a " +
      std::to_string(kFields) + "-attribute entity");
  bench::print_header({"configuration", "setter ops/s(sim)", "validations",
                       "evals skipped"});
  bench::print_row("pruning off (exhaustive)",
                   {off.rate, static_cast<double>(off.validations),
                    static_cast<double>(off.skipped)});
  bench::print_row("pruning on (read-set)",
                   {on.rate, static_cast<double>(on.validations),
                    static_cast<double>(on.skipped)});
  if (off.rate > 0) {
    std::printf("\nthroughput ratio on/off: %.2fx, evaluations avoided: %zu"
                " of %zu\n",
                on.rate / off.rate, on.skipped, off.validations);
  }
  return 0;
}
