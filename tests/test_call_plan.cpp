// Call plans (constraints/ccmgr.h): each CCMgr hook resolves its
// constraints through one immutable plan per (repository, method
// descriptor), built from the repository's lookup() over the class
// ancestry and rebuilt when the repository's or the class registry's
// generation moves.  These tests pin plan reuse, every invalidation path,
// the per-application split, the descriptor-less and uncached fallbacks,
// and sim equivalence with the paper's naive (uncached) repository.
#include <gtest/gtest.h>

#include <algorithm>
#include <typeinfo>

#include "middleware/admin.h"
#include "middleware/cluster.h"
#include "scenarios/flight.h"

namespace dedisys {
namespace {

using scenarios::FlightBooking;

/// A class shaped like Flight (seats, soldTickets, sellTickets(int)) that
/// tests can re-parent after objects exist.
ClassDescriptor& define_seller(ClassRegistry& classes,
                               const std::string& name) {
  ClassDescriptor& cls = classes.define(name);
  cls.define_property("seats", Value{std::int64_t{0}}, "int");
  cls.define_property("soldTickets", Value{std::int64_t{0}}, "int");
  cls.define_method(
      MethodSignature{"sellTickets", {"int"}}, MethodKind::Mutator,
      [](Entity& self, MethodContext&, const std::vector<Value>& args) {
        self.set("soldTickets",
                 Value{as_int(self.get("soldTickets")) + as_int(args.at(0))});
        return Value{};
      });
  return cls;
}

/// Registers `predicate` as a constraint of `type` on `cls`.sellTickets.
void register_on_sell(
    ConstraintRepository& repo, const std::string& name, ConstraintType type,
    const std::string& cls, FunctionConstraint::Predicate predicate,
    ConstraintPriority priority = ConstraintPriority::NonTradeable) {
  auto c = std::make_shared<FunctionConstraint>(name, type, priority,
                                                std::move(predicate));
  c->set_context_object_needed(type != ConstraintType::Precondition);
  ConstraintRegistration reg;
  reg.constraint = std::move(c);
  reg.affected_methods.push_back(AffectedMethod{
      cls, MethodSignature{"sellTickets", {"int"}},
      ContextPreparation{ContextPreparationKind::CalledObject, ""}});
  repo.register_constraint(std::move(reg));
}

/// Hard invariant: at most `cap` tickets sold.
FunctionConstraint::Predicate sold_at_most(std::int64_t cap) {
  return [cap](ConstraintValidationContext& ctx) {
    return as_int(ctx.context_entity().get("soldTickets")) <= cap;
  };
}

class CallPlanTest : public ::testing::Test {
 protected:
  CallPlanTest() : cluster_(make_config()) {
    FlightBooking::define_classes(cluster_.classes());
    FlightBooking::register_method_contracts(cluster_.constraints());
  }

  static ClusterConfig make_config() {
    ClusterConfig cfg;
    cfg.nodes = 1;
    return cfg;
  }

  DedisysNode& node() { return cluster_.node(0); }
  ConstraintRepository& repo() { return cluster_.constraints(); }
  std::size_t searches() { return repo().search_count(); }

  ObjectId create(const std::string& cls, const std::string& app = "") {
    TxScope tx(node().tx());
    const ObjectId id = node().create(tx.id(), cls, app);
    node().invoke(tx.id(), id, "setSeats", {Value{std::int64_t{100}}});
    tx.commit();
    return id;
  }

  /// Sells `count` tickets in its own transaction; false when a
  /// constraint rejected the call.
  bool sell(ObjectId target, std::int64_t count) {
    TxScope tx(node().tx());
    try {
      node().invoke(tx.id(), target, "sellTickets", {Value{count}});
    } catch (const ConstraintViolation&) {
      return false;
    }
    tx.commit();
    return true;
  }

  Cluster cluster_;
};

TEST_F(CallPlanTest, WarmPlansRunNoSearch) {
  const ObjectId f = create("Flight");
  ASSERT_TRUE(sell(f, 1));  // warm-up: builds the sellTickets plan
  (void)node().invoke(TxId{}, f, "getAvailable");
  const std::size_t warm = searches();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sell(f, 1));
    (void)node().invoke(TxId{}, f, "getAvailable");
  }
  EXPECT_EQ(searches(), warm);
}

TEST_F(CallPlanTest, RegisterRemoveAndEnableReachTheNextInvocation) {
  const ObjectId f = create("Flight");
  ASSERT_TRUE(sell(f, 1));

  register_on_sell(repo(), "Cap3", ConstraintType::HardInvariant, "Flight",
                   sold_at_most(3));
  EXPECT_FALSE(sell(f, 5));
  repo().set_enabled("Cap3", false);
  EXPECT_TRUE(sell(f, 5));
  repo().set_enabled("Cap3", true);
  EXPECT_FALSE(sell(f, 1));
  repo().remove("Cap3");
  EXPECT_TRUE(sell(f, 1));
}

TEST_F(CallPlanTest, AttachedAnalysisReachesTheNextInvocation) {
  const ObjectId f = create("Flight");
  register_on_sell(repo(), "NeverHolds", ConstraintType::HardInvariant,
                   "Flight", [](ConstraintValidationContext&) { return false; });
  EXPECT_FALSE(sell(f, 1));
  // A (deliberately false) proof of tautology lets the CCMgr skip it.
  auto report = std::make_shared<analysis::AnalysisReport>();
  report->prunable = true;
  report->verdict = analysis::Verdict::Tautology;
  repo().set_analysis("NeverHolds", report);
  EXPECT_TRUE(sell(f, 1));
  EXPECT_EQ(node().ccmgr().stats().evaluations_proven, 1u);
}

TEST_F(CallPlanTest, DeployedConstraintsReachTheNextInvocation) {
  const ObjectId f = create("Flight");
  ASSERT_TRUE(sell(f, 4));
  AdminConsole(cluster_).deploy_constraints(R"(<constraints>
  <constraint name="SoldAtMostFive" type="HARD" priority="CRITICAL">
    <ocl>self.soldTickets &lt;= 5</ocl>
    <context-class>Flight</context-class>
    <affected-methods>
      <affected-method>
        <objectMethod name="sellTickets">
          <objectClass>Flight</objectClass>
          <arguments><argument>int</argument></arguments>
        </objectMethod>
      </affected-method>
    </affected-methods>
  </constraint>
</constraints>)");
  EXPECT_FALSE(sell(f, 4));
  EXPECT_TRUE(sell(f, 1));
}

TEST_F(CallPlanTest, SetSuperReachesTheNextInvocation) {
  ClassDescriptor& charter = define_seller(cluster_.classes(), "Charter");
  register_on_sell(repo(), "FlightCap3", ConstraintType::HardInvariant,
                   "Flight", sold_at_most(3));
  const ObjectId c = create("Charter");
  ASSERT_TRUE(sell(c, 5));  // Flight's constraints do not apply yet
  charter.set_super("Flight");
  EXPECT_FALSE(sell(c, 1));
}

TEST_F(CallPlanTest, AddInterfaceReachesTheNextInvocation) {
  ClassDescriptor& charter = define_seller(cluster_.classes(), "Charter");
  register_on_sell(repo(), "CappedCap3", ConstraintType::HardInvariant,
                   "Capped", sold_at_most(3));
  const ObjectId c = create("Charter");
  ASSERT_TRUE(sell(c, 5));
  charter.add_interface("Capped");
  EXPECT_FALSE(sell(c, 1));
}

TEST_F(CallPlanTest, ApplicationsSharingAClassUseTheirOwnRepositories) {
  register_on_sell(cluster_.application_constraints("strict"), "Cap3",
                   ConstraintType::HardInvariant, "Flight", sold_at_most(3));
  register_on_sell(cluster_.application_constraints("lenient"), "Cap3",
                   ConstraintType::HardInvariant, "Flight", sold_at_most(30));
  const ObjectId strict = create("Flight", "strict");
  const ObjectId lenient = create("Flight", "lenient");
  // Alternate so that each call follows a warm plan of the other
  // application on the same method descriptor.
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(sell(lenient, 2));
    EXPECT_EQ(sell(strict, 2), i == 0);
  }
}

TEST_F(CallPlanTest, HandBuiltInvocationWithoutDescriptorStillValidates) {
  const ObjectId f = create("Flight");
  Invocation inv;
  inv.target = f;
  inv.target_class = "Flight";
  inv.method = MethodSignature{"sellTickets", {"int"}};
  ASSERT_EQ(inv.descriptor, nullptr);
  inv.args = {Value{std::int64_t{0}}};  // SellCountPositive fails
  EXPECT_THROW(node().ccmgr().before_invocation(inv, node().accessor()),
               ConstraintViolation);
  inv.args = {Value{std::int64_t{1}}};
  const std::size_t before = searches();
  EXPECT_NO_THROW(node().ccmgr().before_invocation(inv, node().accessor()));
  EXPECT_GT(searches(), before);  // resolved afresh, not from a plan
}

TEST_F(CallPlanTest, CachingOffSearchesOnEveryInvocation) {
  repo().set_caching(false);
  const ObjectId f = create("Flight");
  ASSERT_TRUE(sell(f, 1));
  for (int i = 0; i < 3; ++i) {
    const std::size_t before = searches();
    ASSERT_TRUE(sell(f, 1));
    EXPECT_GT(searches(), before);
    const std::size_t after_write = searches();
    (void)node().invoke(TxId{}, f, "getAvailable");
    EXPECT_GT(searches(), after_write);
  }
  EXPECT_EQ(repo().cache_hit_count(), 0u);
}

TEST_F(CallPlanTest, MethodBodyRegisteringAConstraintMidInvocation) {
  // The body registers a failing invariant on its own method: the
  // after-hook must see it (its plan is rebuilt between the two hooks),
  // and the before-hook's plan must not be touched after it was freed
  // (check.sh --asan runs this test).
  ConstraintRepository* constraints = &repo();
  bool arm = true;
  ClassDescriptor& cls = cluster_.classes().define("SelfArming");
  cls.define_method(
      MethodSignature{"arm", {}}, MethodKind::Mutator,
      [constraints, &arm](Entity&, MethodContext&, const std::vector<Value>&) {
        if (arm && constraints->registration("Armed") == nullptr) {
          for (int i = 0; i < 16; ++i) {  // also regrow registrations_
            auto filler = std::make_shared<FunctionConstraint>(
                "Filler" + std::to_string(i), ConstraintType::HardInvariant,
                ConstraintPriority::NonTradeable,
                [](ConstraintValidationContext&) { return true; });
            ConstraintRegistration reg;
            reg.constraint = std::move(filler);
            reg.affected_methods.push_back(AffectedMethod{
                "SelfArming", MethodSignature{"other", {}}, {}});
            constraints->register_constraint(std::move(reg));
          }
          ConstraintRegistration reg;
          reg.constraint = std::make_shared<FunctionConstraint>(
              "Armed", ConstraintType::HardInvariant,
              ConstraintPriority::NonTradeable,
              [](ConstraintValidationContext&) { return false; });
          reg.affected_methods.push_back(
              AffectedMethod{"SelfArming", MethodSignature{"arm", {}}, {}});
          constraints->register_constraint(std::move(reg));
        }
        return Value{};
      });
  TxScope setup(node().tx());
  const ObjectId obj = node().create(setup.id(), "SelfArming");
  setup.commit();

  auto invoke_arm = [&] {
    TxScope tx(node().tx());
    node().invoke(tx.id(), obj, "arm");
    tx.commit();
  };
  EXPECT_THROW(invoke_arm(), ConstraintViolation);
  arm = false;
  repo().remove("Armed");
  EXPECT_NO_THROW(invoke_arm());
}

// -- sim equivalence with the naive repository --------------------------------

struct MixedRun {
  SimTime end = 0;
  std::vector<std::string> outcomes;
  std::vector<std::string> threats_before_reconcile;
  std::size_t threats_after_reconcile = 0;
  std::string timeline;
  std::size_t searches = 0;
};

/// Reads, sells, contract violations and inherited constraints of every
/// type, in healthy mode, in a partition (threats) and after
/// reconciliation.
MixedRun run_mixed_workload(bool caching) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.flags.observability = true;
  cfg.flags.trace_capacity = 65536;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());
  define_seller(cluster.classes(), "Charter").set_super("Flight");
  FlightBooking::register_constraints(cluster.constraints());
  ConstraintRepository& repo = cluster.constraints();
  auto add = [&](const std::string& name, ConstraintType type,
                 const std::string& cls,
                 FunctionConstraint::Predicate predicate) {
    register_on_sell(repo, name, type, cls, std::move(predicate),
                     ConstraintPriority::Tradeable);
    repo.find(name).set_min_satisfaction_degree(
        SatisfactionDegree::PossiblySatisfied);
  };
  auto count_at_most = [](std::int64_t cap) {
    return [cap](ConstraintValidationContext& ctx) {
      const std::int64_t n = as_int(ctx.arguments().at(0));
      return n > 0 && n <= cap;
    };
  };
  // Preconditions on two hierarchy levels (OR'd for Charter).
  add("CountAtMostFive", ConstraintType::Precondition, "Flight",
      count_at_most(5));
  add("CharterCountAtMostTwo", ConstraintType::Precondition, "Charter",
      count_at_most(2));
  add("SoldPositive", ConstraintType::Postcondition, "Flight",
      [](ConstraintValidationContext& ctx) {
        return as_int(ctx.context_entity().get("soldTickets")) > 0;
      });
  add("SoftCap", ConstraintType::SoftInvariant, "Flight", sold_at_most(12));
  add("AsyncCap", ConstraintType::AsyncInvariant, "Charter", sold_at_most(9));
  repo.set_caching(caching);

  MixedRun run;
  auto attempt = [&](std::size_t node, ObjectId target,
                     const std::string& method, std::vector<Value> args) {
    DedisysNode& n = cluster.node(node);
    TxScope tx(n.tx());
    try {
      const Value result = n.invoke(tx.id(), target, method, std::move(args));
      tx.commit();
      run.outcomes.push_back(is_null(result) ? "ok"
                                             : std::to_string(as_int(result)));
    } catch (const std::exception& e) {
      run.outcomes.push_back(typeid(e).name() + std::string(": ") + e.what());
    }
  };
  auto sell = [&](std::size_t node, ObjectId target, std::int64_t count) {
    attempt(node, target, "sellTickets", {Value{count}});
  };

  const ObjectId flight = FlightBooking::create_flight(cluster.node(0), 10);
  const ObjectId charter = [&] {
    TxScope tx(cluster.node(0).tx());
    const ObjectId id = cluster.node(0).create(tx.id(), "Charter");
    cluster.node(0).invoke(tx.id(), id, "setSeats", {Value{std::int64_t{6}}});
    tx.commit();
    return id;
  }();
  for (std::int64_t count : {3, 0, 4, 6, 1}) {
    sell(0, flight, count);
    sell(1, charter, count);
    attempt(2, flight, "getAvailable", {});
  }
  cluster.inject(fault::split_indices({{0, 1}, {2}}));
  for (std::int64_t count : {1, 2, 3}) {
    sell(0, flight, count);
    sell(2, flight, count);
    sell(2, charter, count);
    attempt(1, charter, "getSoldTickets", {});
  }
  for (const StoredThreat& st : cluster.threats().load_all()) {
    run.threats_before_reconcile.push_back(st.threat.identity());
  }
  cluster.inject(fault::Heal{});
  cluster.reconcile();
  sell(1, flight, 1);
  attempt(0, charter, "getSoldTickets", {});
  run.threats_after_reconcile = cluster.threats().identity_count();
  run.end = cluster.runtime().now();
  run.timeline = AdminConsole(cluster).timeline();
  run.searches = cluster.constraints().search_count();
  return run;
}

TEST(CallPlanEquivalence, CachingOnAndOffAgreeOnAMixedSimWorkload) {
  const MixedRun cached = run_mixed_workload(true);
  const MixedRun naive = run_mixed_workload(false);
  EXPECT_EQ(cached.end, naive.end);
  EXPECT_EQ(cached.outcomes, naive.outcomes);
  EXPECT_EQ(cached.threats_before_reconcile, naive.threats_before_reconcile);
  EXPECT_EQ(cached.threats_after_reconcile, naive.threats_after_reconcile);
  EXPECT_EQ(cached.timeline, naive.timeline);
  // The workload really exercised violations and threats.
  EXPECT_FALSE(cached.threats_before_reconcile.empty());
  EXPECT_NE(std::find_if(cached.outcomes.begin(), cached.outcomes.end(),
                         [](const std::string& o) {
                           return o.find("CountAtMostFive") !=
                                  std::string::npos;
                         }),
            cached.outcomes.end());
  EXPECT_LT(cached.searches, naive.searches);
}

}  // namespace
}  // namespace dedisys
