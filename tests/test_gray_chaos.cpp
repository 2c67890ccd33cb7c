// Gray failures end to end: asymmetric one-way cuts, flapping links,
// slow-but-alive nodes and clock skew — op semantics at the network
// layer, the GMS split-brain regression the bidirectional-view fix pins,
// retry/backoff interplay in the GCS, and the property harness (random
// plans, shrinking, corpus replay).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <variant>
#include <vector>

#include "gcs/group_comm.h"
#include "runtime/sim_runtime.h"
#include "scenarios/chaos.h"
#include "scenarios/invariants.h"
#include "sim/fault_engine.h"
#include "sim/fault_plan.h"
#include "sim/network.h"
#include "util/errors.h"

#ifndef GRAY_CORPUS_DIR
#define GRAY_CORPUS_DIR "tests/gray_corpus"
#endif

namespace dedisys {
namespace {

using scenarios::ChaosOptions;
using scenarios::ChaosResult;
using scenarios::check_plan;
using scenarios::run_chaos;
using scenarios::shrink_plan;

class GrayNetworkTest : public ::testing::Test {
 protected:
  GrayNetworkTest() : net_(clock_, cost_) {
    for (std::size_t i = 0; i < 3; ++i) net_.add_node(NodeId{i});
  }

  SimClock clock_;
  CostModel cost_;
  SimNetwork net_;
};

// -- op semantics -----------------------------------------------------------

TEST_F(GrayNetworkTest, AsymCutRoutesAroundAndStaysMutual) {
  net_.apply(fault::AsymPartition{{{NodeId{1}, NodeId{0}}}});
  EXPECT_FALSE(net_.link_open(NodeId{1}, NodeId{0}));
  EXPECT_TRUE(net_.link_open(NodeId{0}, NodeId{1}));
  // Delivery 1 -> 0 relays via 2: reachable, two hops, double rpc cost.
  EXPECT_TRUE(net_.reachable(NodeId{1}, NodeId{0}));
  EXPECT_EQ(net_.hops(NodeId{1}, NodeId{0}), 2u);
  EXPECT_EQ(net_.rpc_cost(NodeId{1}, NodeId{0}), 2 * cost_.rpc_latency);
  EXPECT_EQ(net_.rpc_cost(NodeId{0}, NodeId{1}), cost_.rpc_latency);
  // All three nodes remain one strongly-connected component.
  EXPECT_EQ(net_.mutually_reachable_set(NodeId{1}).size(), 3u);
  EXPECT_FALSE(net_.fully_connected());

  net_.apply(fault::HealLinks{});
  EXPECT_TRUE(net_.fully_connected());
  EXPECT_EQ(net_.rpc_cost(NodeId{1}, NodeId{0}), cost_.rpc_latency);
}

TEST_F(GrayNetworkTest, FullOneWayIsolationSplitsMutualSets) {
  // Node 1 can hear everyone but send to no one.
  net_.apply(fault::AsymPartition{
      {{NodeId{1}, NodeId{0}}, {NodeId{1}, NodeId{2}}}});
  EXPECT_FALSE(net_.reachable(NodeId{1}, NodeId{0}));
  EXPECT_TRUE(net_.reachable(NodeId{0}, NodeId{1}));
  const std::vector<NodeId> own = net_.mutually_reachable_set(NodeId{1});
  ASSERT_EQ(own.size(), 1u);
  EXPECT_EQ(own[0], NodeId{1});
  EXPECT_EQ(net_.mutually_reachable_set(NodeId{0}).size(), 2u);
  // Selective repair of one direction re-opens routing both ways.
  net_.apply(fault::HealLinks{{{NodeId{1}, NodeId{2}}}});
  EXPECT_TRUE(net_.reachable(NodeId{1}, NodeId{0}));
  EXPECT_EQ(net_.mutually_reachable_set(NodeId{0}).size(), 3u);
}

TEST_F(GrayNetworkTest, SlowNodeScalesMessageLegsOnly) {
  EXPECT_EQ(net_.rpc_cost(NodeId{0}, NodeId{1}), cost_.rpc_latency);
  net_.apply(fault::SlowNode{NodeId{1}, 3.0});
  EXPECT_TRUE(net_.slow_active());
  EXPECT_DOUBLE_EQ(net_.slow_factor(NodeId{1}), 3.0);
  // Every leg touching node 1 is slower; legs between others are not.
  EXPECT_EQ(net_.rpc_cost(NodeId{0}, NodeId{1}), 3 * cost_.rpc_latency);
  EXPECT_EQ(net_.rpc_cost(NodeId{1}, NodeId{2}), 3 * cost_.rpc_latency);
  EXPECT_EQ(net_.rpc_cost(NodeId{0}, NodeId{2}), cost_.rpc_latency);
  // The node stays alive and in full membership — laggy, not dead.
  EXPECT_TRUE(net_.is_alive(NodeId{1}));
  EXPECT_TRUE(net_.fully_connected());
  net_.apply(fault::SlowNode{NodeId{1}, 1.0});
  EXPECT_FALSE(net_.slow_active());
  EXPECT_EQ(net_.rpc_cost(NodeId{0}, NodeId{1}), cost_.rpc_latency);
}

TEST_F(GrayNetworkTest, ClockSkewShiftsLocalNowOnly) {
  clock_.advance(sim_ms(10));
  net_.apply(fault::ClockSkew{NodeId{2}, sim_ms(3)});
  net_.apply(fault::ClockSkew{NodeId{1}, -sim_ms(2)});
  EXPECT_EQ(net_.local_now(NodeId{0}), sim_ms(10));
  EXPECT_EQ(net_.local_now(NodeId{1}), sim_ms(8));
  EXPECT_EQ(net_.local_now(NodeId{2}), sim_ms(13));
  // Skew never touches the shared schedule or membership.
  EXPECT_EQ(clock_.now(), sim_ms(10));
  EXPECT_TRUE(net_.fully_connected());
  net_.apply(fault::ClockSkew{NodeId{2}, 0});
  EXPECT_EQ(net_.local_now(NodeId{2}), sim_ms(10));
}

TEST_F(GrayNetworkTest, TopologySnapshotRestoresCutLinks) {
  const Topology before =
      net_.apply(fault::AsymPartition{{{NodeId{0}, NodeId{2}}}});
  EXPECT_FALSE(net_.link_open(NodeId{0}, NodeId{2}));
  net_.apply(before);
  EXPECT_TRUE(net_.fully_connected());
}

TEST(GrayEngineTest, FlapExpandsToTogglesAndEndsUp) {
  SimClock clock;
  CostModel cost;
  SimNetwork net(clock, cost);
  for (std::size_t i = 0; i < 3; ++i) net.add_node(NodeId{i});

  FaultPlan plan;
  plan.seed = 11;
  fault::Flap flap;
  flap.a = NodeId{0};
  flap.b = NodeId{1};
  flap.period = sim_ms(10);
  flap.duration = sim_ms(60);
  plan.add(sim_ms(5), flap);

  FaultEngine engine(net, plan);
  engine.advance_to(sim_ms(5));
  // Down phase cuts both directions immediately.
  EXPECT_FALSE(net.link_open(NodeId{0}, NodeId{1}));
  EXPECT_FALSE(net.link_open(NodeId{1}, NodeId{0}));
  // Toggles were scheduled into the pending plan.
  EXPECT_GT(engine.stats().flap_toggles, 0u);
  while (!engine.done()) engine.advance_to(engine.next_at());
  // The flap closes with the link (and the whole network) up.
  EXPECT_TRUE(net.fully_connected());
  EXPECT_EQ(engine.stats().flaps, 1u);
}

TEST(GrayEngineTest, SameSeedSameToggleSchedule) {
  auto schedule = [](std::uint64_t seed) {
    SimClock clock;
    CostModel cost;
    SimNetwork net(clock, cost);
    for (std::size_t i = 0; i < 3; ++i) net.add_node(NodeId{i});
    FaultPlan plan;
    plan.seed = seed;
    fault::Flap flap;
    flap.a = NodeId{1};
    flap.b = NodeId{2};
    flap.period = sim_ms(8);
    flap.duration = sim_ms(80);
    plan.add(sim_ms(3), flap);
    FaultEngine engine(net, plan);
    std::vector<SimTime> fired;
    while (!engine.done()) {
      fired.push_back(engine.next_at());
      engine.advance_to(engine.next_at());
    }
    return fired;
  };
  EXPECT_EQ(schedule(5), schedule(5));
  EXPECT_NE(schedule(5), schedule(6));  // jitter derives from the seed
}

// -- plan serialization ------------------------------------------------------

TEST(GrayPlanText, RoundTripsEveryOpKind) {
  FaultPlan plan;
  plan.seed = 99;
  plan.add(10, fault::Partition{{{NodeId{0}, NodeId{1}}, {NodeId{2}}}});
  plan.add(20, fault::Crash{NodeId{2}});
  plan.add(30, fault::Restart{NodeId{2}});
  LinkFaults faults;
  faults.drop = 0.125;
  faults.delay_prob = 0.5;
  faults.delay = 700;
  plan.add(40, fault::SetLinkFaults{faults});
  plan.add(45, fault::SetLinkFaultsOn{NodeId{0}, NodeId{1}, faults});
  plan.add(50, fault::AsymPartition{{{NodeId{1}, NodeId{0}}}});
  plan.add(60, fault::HealLinks{{{NodeId{1}, NodeId{0}}}});
  plan.add(70, fault::Flap{NodeId{0}, NodeId{2}, sim_ms(6), sim_ms(30)});
  plan.add(80, fault::SlowNode{NodeId{1}, 2.75});
  plan.add(90, fault::ClockSkew{NodeId{2}, -sim_ms(3)});
  plan.add(100, fault::Heal{});
  plan.add(110, fault::HealLinks{});

  const std::string text = plan_to_text(plan);
  const FaultPlan parsed = plan_from_text(text);
  EXPECT_EQ(parsed.seed, plan.seed);
  ASSERT_EQ(parsed.actions.size(), plan.actions.size());
  // Exact round trip: serializing again yields the identical text.
  EXPECT_EQ(plan_to_text(parsed), text);
}

TEST(GrayPlanText, RandomGrayPlanRoundTrips) {
  RandomPlanOptions options;
  for (std::size_t n = 0; n < 4; ++n) options.nodes.push_back(NodeId{n});
  options.events = 16;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const FaultPlan plan = random_gray_plan(seed, options);
    const std::string text = plan_to_text(plan);
    EXPECT_EQ(plan_to_text(plan_from_text(text)), text) << "seed " << seed;
  }
}

TEST(GrayPlanText, MalformedInputThrows) {
  EXPECT_THROW(plan_from_text("at 10 heal\n"), ConfigError);  // missing seed
  EXPECT_THROW(plan_from_text("seed 1\nat 10 bogus\n"), ConfigError);
  EXPECT_THROW(plan_from_text("seed 1\nat 10 asym\n"), ConfigError);
  EXPECT_THROW(plan_from_text("seed 1\nat 10 asym 1-0\n"), ConfigError);
  EXPECT_THROW(plan_from_text("seed 1\nat 10 flap 0 1 5000\n"), ConfigError);
  EXPECT_THROW(plan_from_text("seed 1\nwat 10 heal\n"), ConfigError);
  EXPECT_NO_THROW(plan_from_text("seed 1\n# comment\n\nat 10 heal\n"));
}

// -- the GMS split-brain regression -----------------------------------------

ChaosOptions small_chaos() {
  ChaosOptions options;
  options.nodes = 3;
  options.objects = 3;
  options.ops = 30;
  options.fault_events = 8;
  options.horizon = sim_ms(200);
  return options;
}

TEST(GraySplitBrain, BidirectionalViewsKeepOnePrimary) {
  // A one-way cut 1>0: the three nodes stay one strongly-connected
  // component, so every view keeps all three and one primary is elected.
  // Views from outbound reachability alone split the brain on this plan
  // (tests/fixtures/split_brain_views.json holds such a run's views).
  ChaosOptions options = small_chaos();
  FaultPlan plan;
  plan.seed = 4242;
  plan.add(sim_us(10), fault::AsymPartition{{{NodeId{1}, NodeId{0}}}});
  plan.add(sim_ms(200) + 1, fault::Heal{});
  options.plan = plan;
  const ChaosResult result = run_chaos(options);
  EXPECT_EQ(result.primary_violations, 0u);
  EXPECT_TRUE(result.invariants_ok());
}

// -- retry/backoff interplay -------------------------------------------------

class GrayGcsTest : public ::testing::Test {
 protected:
  GrayGcsTest() : gc_(rt_) {
    for (std::size_t i = 0; i < 3; ++i) net_.add_node(NodeId{i});
    net_.seed_faults(21);
  }

  CostModel cost_;
  SimRuntime rt_{cost_};
  SimClock& clock_ = rt_.clock();
  SimNetwork& net_ = rt_.network();
  GroupCommunication gc_;
};

TEST_F(GrayGcsTest, DedupNeverDropsFirstDelivery) {
  LinkFaults faults;
  faults.duplicate = 1.0;  // every message delivered twice
  net_.apply(fault::SetLinkFaults{faults});
  std::size_t deliveries = 0;
  const std::size_t delivered = gc_.multicast(
      NodeId{0}, net_.nodes(), [&](NodeId) { ++deliveries; });
  // Both receivers got the payload exactly once; the duplicates were
  // suppressed without ever suppressing a first delivery.
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(deliveries, 2u);
  EXPECT_EQ(gc_.stats().duplicates_suppressed, 2u);
}

TEST_F(GrayGcsTest, RetryExhaustionReportsTheGap) {
  LinkFaults faults;
  faults.drop = 1.0;  // nothing gets through
  net_.apply(fault::SetLinkFaultsOn{NodeId{0}, NodeId{1}, faults});
  bool delivered = false;
  EXPECT_FALSE(gc_.send(NodeId{0}, NodeId{1}, [&] { delivered = true; }));
  EXPECT_FALSE(delivered);
  EXPECT_EQ(gc_.stats().gave_up, 1u);
  EXPECT_EQ(gc_.stats().retries, gc_.retry_policy().max_attempts - 1);
}

TEST_F(GrayGcsTest, RetryLegsHonorSlowNodesAndRelays) {
  net_.apply(fault::SlowNode{NodeId{1}, 2.0});
  LinkFaults faults;
  faults.drop = 0.5;
  net_.apply(fault::SetLinkFaultsOn{NodeId{0}, NodeId{1}, faults});
  const SimTime before = clock_.now();
  gc_.send(NodeId{0}, NodeId{1}, [] {});
  // Every charged leg towards the slow node costs at least the doubled
  // point-to-point latency (the exact count depends on the seeded drops).
  EXPECT_GE(clock_.now() - before, 2 * cost_.rpc_latency);
}

TEST(GrayFlapRetry, ExhaustedRetriesMarkReconciliationAndStayDeterministic) {
  // A flapping link plus heavy loss around the designated primary: some
  // propagations exhaust their retries mid-flap, and the chaos harness
  // must mark those gaps and converge after the final heal — on every run
  // of the same seed, with a byte-identical timeline.  The extra 1<->2 cut
  // means every flap-down dwell fully isolates node 1 (its only remaining
  // path runs over the flapping link), so degraded mode is entered and the
  // final heal must trigger a reconciliation.
  ChaosOptions options = small_chaos();
  FaultPlan plan;
  plan.seed = 31;
  LinkFaults lossy;
  lossy.drop = 0.6;
  plan.add(sim_us(5), fault::SetLinkFaults{lossy});
  plan.add(sim_ms(10), fault::Flap{NodeId{0}, NodeId{1}, sim_ms(6), sim_ms(80)});
  plan.add(sim_ms(20), fault::AsymPartition{{{NodeId{1}, NodeId{2}},
                                             {NodeId{2}, NodeId{1}}}});
  plan.add(sim_ms(120), fault::HealLinks{{{NodeId{1}, NodeId{2}},
                                          {NodeId{2}, NodeId{1}}}});
  plan.add(sim_ms(200) + 1, fault::Heal{});
  plan.add(sim_ms(200) + 2, fault::SetLinkFaults{});
  options.plan = plan;

  const ChaosResult first = run_chaos(options);
  EXPECT_TRUE(first.invariants_ok())
      << "divergent=" << first.divergent_objects
      << " threats=" << first.threats_remaining;
  EXPECT_GE(first.reconciles, 1u);

  const ChaosResult second = run_chaos(options);
  EXPECT_EQ(first.timeline, second.timeline);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
}

// -- property harness --------------------------------------------------------

TEST(GrayProperties, RandomGrayPlansHoldAllProperties) {
  scenarios::PropertySuiteOptions options;
  options.plans = 4;  // check.sh --gray runs the >= 20 plan sweep
  options.chaos = small_chaos();
  const scenarios::PropertySuiteResult result =
      scenarios::run_property_suite(options);
  EXPECT_EQ(result.plans_checked, 4u);
  for (const auto& failure : result.failures) {
    ADD_FAILURE() << "seed " << failure.seed << ": " << failure.violation
                  << "\n" << plan_to_text(failure.shrunk);
  }
}

TEST(GrayProperties, ShrinkerReducesToTheCulpritOp) {
  RandomPlanOptions plan_options;
  for (std::size_t n = 0; n < 3; ++n) plan_options.nodes.push_back(NodeId{n});
  plan_options.events = 12;
  FaultPlan noisy = random_gray_plan(13, plan_options);
  noisy.add(sim_ms(40), fault::Crash{NodeId{2}});
  noisy.sort();
  const std::size_t original = noisy.actions.size();

  const auto has_crash = [](const FaultPlan& plan) {
    for (const auto& action : plan.actions) {
      const auto* crash = std::get_if<fault::Crash>(&action.op);
      if (crash != nullptr && crash->node == NodeId{2}) return true;
    }
    return false;
  };
  const scenarios::ShrinkResult shrunk = shrink_plan(noisy, has_crash, 500);
  EXPECT_EQ(shrunk.plan.actions.size(), 1u);
  EXPECT_TRUE(has_crash(shrunk.plan));
  EXPECT_EQ(shrunk.removed, original - 1);
}

TEST(GrayProperties, ShrinkerMinimizesARealRunPropertyToThreeOpsOrFewer) {
  // A property of real chaos runs, buried in a noisy gray plan: the run
  // reconciles degraded-mode threats.  Of the plan's ten ops only the
  // partition {1,2}|{0} causes it; the others (cuts, skews, later
  // partitions) are noise the shrinker must strip.
  ChaosOptions chaos;
  chaos.ops = 40;
  chaos.fault_events = 10;
  chaos.horizon = sim_ms(250);
  RandomPlanOptions plan_options;
  for (std::size_t n = 0; n < 3; ++n) plan_options.nodes.push_back(NodeId{n});
  plan_options.horizon = chaos.horizon;
  plan_options.events = 6;
  FaultPlan plan = random_gray_plan(4242, plan_options);
  plan.add(sim_us(10), fault::AsymPartition{{{NodeId{1}, NodeId{0}}}});
  plan.sort();

  const auto reconciles_threats = [&](const FaultPlan& candidate) {
    return check_plan(candidate, chaos).result.threats_reevaluated > 0;
  };
  ASSERT_TRUE(reconciles_threats(plan));
  const scenarios::ShrinkResult shrunk =
      shrink_plan(plan, reconciles_threats, 80);
  EXPECT_LE(shrunk.plan.actions.size(), 3u) << plan_to_text(shrunk.plan);
  EXPECT_TRUE(reconciles_threats(shrunk.plan));
  const auto is_the_cause = [](const TimedFault& action) {
    const auto* split = std::get_if<fault::Partition>(&action.op);
    return split != nullptr &&
           split->groups == std::vector<std::vector<NodeId>>{
                                {NodeId{1}, NodeId{2}}, {NodeId{0}}};
  };
  EXPECT_TRUE(std::any_of(shrunk.plan.actions.begin(),
                          shrunk.plan.actions.end(), is_the_cause))
      << plan_to_text(shrunk.plan);
}

TEST(GrayProperties, CommittedCorpusStillPasses) {
  const scenarios::PropertySuiteResult result =
      scenarios::run_corpus(GRAY_CORPUS_DIR, small_chaos());
  EXPECT_GE(result.plans_checked, 3u)
      << "corpus missing at " << GRAY_CORPUS_DIR;
  for (const auto& failure : result.failures) {
    ADD_FAILURE() << failure.violation;
  }
}

// -- gray invariants under single-op plans -----------------------------------

TEST(GrayInvariants, SlowNodeRunConvergesAndIsDeterministic) {
  ChaosOptions options = small_chaos();
  FaultPlan plan;
  plan.seed = 8;
  plan.add(sim_ms(5), fault::SlowNode{NodeId{1}, 3.5});
  plan.add(sim_ms(150), fault::SlowNode{NodeId{1}, 1.0});
  options.plan = plan;
  const ChaosResult result = run_chaos(options);
  EXPECT_TRUE(result.invariants_ok());
  EXPECT_EQ(run_chaos(options).timeline, result.timeline);
}

TEST(GrayInvariants, ClockSkewNeverBlocksConvergence) {
  // Reconciliation is version-based, so even a large skew on the primary's
  // stamps must not produce divergence or model mismatches.
  ChaosOptions options = small_chaos();
  FaultPlan plan;
  plan.seed = 9;
  plan.add(sim_ms(1), fault::ClockSkew{NodeId{0}, sim_ms(5)});
  plan.add(sim_ms(2), fault::ClockSkew{NodeId{2}, -sim_ms(5)});
  plan.add(sim_ms(180), fault::ClockSkew{NodeId{0}, 0});
  plan.add(sim_ms(180), fault::ClockSkew{NodeId{2}, 0});
  options.plan = plan;
  const ChaosResult result = run_chaos(options);
  EXPECT_TRUE(result.invariants_ok());
  EXPECT_EQ(run_chaos(options).timeline, result.timeline);
}

}  // namespace
}  // namespace dedisys
