// Cluster metrics snapshots and multi-threat Web negotiation sequences.
#include <gtest/gtest.h>

#include "middleware/admin.h"
#include "middleware/metrics.h"
#include "middleware/obs_export.h"
#include "scenarios/evalapp.h"
#include "scenarios/flight.h"
#include "web/bridge.h"

namespace dedisys {
namespace {

using scenarios::AcceptAllNegotiation;
using scenarios::EvalApp;
using scenarios::FlightBooking;

TEST(Metrics, SnapshotAggregatesServiceCounters) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster cluster(cfg);
  EvalApp::define_classes(cluster.classes());
  EvalApp::register_constraints(cluster.constraints());

  const auto ids = EvalApp::create_entities(cluster.node(0), 5);
  for (int i = 0; i < 4; ++i) {
    EvalApp::run_op(cluster.node(0), ids[0], "emptySatisfied");
  }
  {
    TxScope tx(cluster.node(0).tx());
    cluster.node(0).invoke(tx.id(), ids[0], "setValue",
                           {Value{std::string{"x"}}});
    tx.commit();
  }

  const ClusterMetrics m = collect_metrics(cluster);
  EXPECT_EQ(m.live_objects, 5u);
  EXPECT_EQ(m.nodes.size(), 3u);
  EXPECT_EQ(m.stored_threat_identities, 0u);
  EXPECT_GT(m.sim_time, 0);
  // Node 0 (primary) validated the satisfied constraint four times.
  EXPECT_GE(m.nodes[0].validations, 4u);
  // One propagated update, applied by both backups.
  EXPECT_EQ(m.nodes[0].updates_propagated, 1u);
  EXPECT_EQ(m.nodes[1].backups_applied, 1u);
  EXPECT_EQ(m.nodes[2].backups_applied, 1u);
  EXPECT_EQ(m.total(&NodeMetrics::backups_applied), 2u);
  EXPECT_GT(m.total(&NodeMetrics::db_writes), 0u);
}

TEST(Metrics, DegradedModeVisibleInSnapshot) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster cluster(cfg);
  EvalApp::define_classes(cluster.classes());
  EvalApp::register_constraints(cluster.constraints());
  const auto ids = EvalApp::create_entities(cluster.node(0), 1);
  cluster.inject(fault::split_indices({{0, 1}, {2}}));
  EvalApp::run_op_negotiated(cluster.node(0), ids[0], "emptyThreat",
                             std::make_shared<AcceptAllNegotiation>());

  const ClusterMetrics m = collect_metrics(cluster);
  EXPECT_EQ(m.nodes[0].mode, SystemMode::Degraded);
  EXPECT_EQ(m.stored_threat_identities, 1u);
  EXPECT_EQ(m.total(&NodeMetrics::threats_accepted), 1u);

  const std::string text = render_metrics(m);
  EXPECT_NE(text.find("threats: 1"), std::string::npos);
  EXPECT_NE(text.find("degraded"), std::string::npos);
}

TEST(Metrics, JsonExportMatchesSnapshot) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.flags.observability = true;
  Cluster cluster(cfg);
  EvalApp::define_classes(cluster.classes());
  EvalApp::register_constraints(cluster.constraints());
  const auto ids = EvalApp::create_entities(cluster.node(0), 2);
  cluster.inject(fault::split_indices({{0, 1}, {2}}));
  EvalApp::run_op_negotiated(cluster.node(0), ids[0], "emptyThreat",
                             std::make_shared<AcceptAllNegotiation>());

  const ClusterMetrics m = collect_metrics(cluster);
  AdminConsole admin(cluster);
  const obs::Json doc = obs::Json::parse(admin.metrics_json());
  const obs::Json& metrics = doc.at("metrics");
  EXPECT_EQ(static_cast<std::size_t>(metrics.at("sim_time_us").as_int()),
            static_cast<std::size_t>(m.sim_time));
  EXPECT_EQ(static_cast<std::size_t>(metrics.at("live_objects").as_int()),
            m.live_objects);
  EXPECT_EQ(
      static_cast<std::size_t>(metrics.at("stored_threat_identities").as_int()),
      m.stored_threat_identities);
  ASSERT_EQ(metrics.at("nodes").size(), m.nodes.size());
  for (std::size_t i = 0; i < m.nodes.size(); ++i) {
    const obs::Json& node = metrics.at("nodes").at(i);
    EXPECT_EQ(node.at("mode").as_string(), to_string(m.nodes[i].mode));
    EXPECT_EQ(static_cast<std::size_t>(node.at("validations").as_int()),
              m.nodes[i].validations);
    EXPECT_EQ(static_cast<std::size_t>(node.at("threats_accepted").as_int()),
              m.nodes[i].threats_accepted);
  }
  // The degraded-mode threat left its lifecycle in the exported trace.
  bool saw_accept = false;
  for (const obs::Json& e : doc.at("trace").at("events").items()) {
    if (e.at("kind").as_string() == "threat.accepted") saw_accept = true;
  }
  EXPECT_TRUE(saw_accept);
}

TEST(Metrics, LookupCacheCountersExported) {
  ClusterConfig cfg;
  cfg.nodes = 1;
  Cluster cluster(cfg);
  EvalApp::define_classes(cluster.classes());
  EvalApp::register_constraints(cluster.constraints());
  const auto ids = EvalApp::create_entities(cluster.node(0), 1);
  EvalApp::run_op(cluster.node(0), ids[0], "emptySatisfied");

  const ClusterMetrics m = collect_metrics(cluster);
  EXPECT_GE(m.lookup_searches, 1u);
  EXPECT_EQ(m.lookup_searches, m.lookup_cache_hits + m.lookup_cache_misses);

  // The query cache sits at metrics.lookup_cache, right after live_objects.
  const obs::Json doc = obs::Json::parse(AdminConsole(cluster).metrics_json());
  const obs::Json& metrics = doc.at("metrics");
  const obs::Json::Object& keys = metrics.members();
  for (std::size_t i = 0; i + 1 < keys.size(); ++i) {
    if (keys[i].first == "live_objects") {
      EXPECT_EQ(keys[i + 1].first, "lookup_cache");
    }
  }
  const obs::Json& cache = metrics.at("lookup_cache");
  EXPECT_EQ(static_cast<std::size_t>(cache.at("searches").as_int()),
            m.lookup_searches);
  EXPECT_EQ(static_cast<std::size_t>(cache.at("hits").as_int()),
            m.lookup_cache_hits);
  EXPECT_EQ(static_cast<std::size_t>(cache.at("misses").as_int()),
            m.lookup_cache_misses);
}

/// JSON and Prometheus are rendered from one counter table: every counter
/// the JSON export carries per node and under `faults` has a Prometheus
/// series too.
TEST(Metrics, PrometheusExportsEveryJsonCounter) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster cluster(cfg);
  EvalApp::define_classes(cluster.classes());
  EvalApp::register_constraints(cluster.constraints());
  const auto ids = EvalApp::create_entities(cluster.node(0), 2);
  EvalApp::run_op(cluster.node(0), ids[0], "emptySatisfied");

  const obs::Json doc = obs::Json::parse(AdminConsole(cluster).metrics_json());
  const obs::Json& metrics = doc.at("metrics");
  const std::string prom = obs::render_prometheus(cluster);

  ASSERT_EQ(metrics.at("nodes").size(), 3u);
  for (const obs::Json& node : metrics.at("nodes").items()) {
    const std::string label =
        "node=\"" + std::to_string(node.at("node").as_int()) + "\"";
    for (const auto& [key, value] : node.members()) {
      if (key == "node" || key == "mode") continue;
      const std::string series = "dedisys_node_total{" + label +
                                 ",kind=\"" + key + "\"} " +
                                 std::to_string(value.as_int()) + "\n";
      EXPECT_NE(prom.find(series), std::string::npos) << series;
    }
  }
  ASSERT_GT(metrics.at("faults").size(), 0u);
  for (const auto& [key, value] : metrics.at("faults").members()) {
    const std::string labels = "{kind=\"" + key + "\"} " +
                               std::to_string(value.as_int()) + "\n";
    const bool total = prom.find("dedisys_faults_total" + labels) !=
                       std::string::npos;
    const bool current = prom.find("dedisys_faults_current" + labels) !=
                         std::string::npos;
    EXPECT_TRUE(total || current) << key;
  }
  // A current count is a gauge, not a lifetime total.
  EXPECT_NE(prom.find("# TYPE dedisys_faults_current gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("dedisys_faults_current{kind=\"tx_in_doubt\"}"),
            std::string::npos);
  EXPECT_EQ(prom.find("dedisys_faults_total{kind=\"tx_in_doubt\"}"),
            std::string::npos);
}

TEST(WebMultiThreat, TwoNegotiationRoundTripsInOneBusinessRequest) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());
  FlightBooking::register_constraints(cluster.constraints(), false,
                                      SatisfactionDegree::Satisfied);
  DedisysNode& node = cluster.node(0);
  const ObjectId f1 = FlightBooking::create_flight(node, 80);
  const ObjectId f2 = FlightBooking::create_flight(node, 80);
  cluster.inject(fault::split_indices({{0, 1}, {2}}));

  std::shared_ptr<web::WebNegotiationBridge> bridge;
  web::WebBusinessServlet servlet([&] {
    TxScope tx(node.tx());
    node.ccmgr().register_negotiation_handler(tx.id(), bridge);
    node.invoke(tx.id(), f1, "sellTickets", {Value{std::int64_t{1}}});
    node.invoke(tx.id(), f2, "sellTickets", {Value{std::int64_t{1}}});
    tx.commit();
    return "two bookings";
  });
  bridge = servlet.bridge();

  // First response carries the first threat; the decision response
  // carries the SECOND threat; only the final decision returns the result.
  web::HttpResponse r = servlet.handle(web::HttpRequest{"/business", {}});
  ASSERT_EQ(r.kind, "negotiation-request");
  r = servlet.handle(
      web::HttpRequest{"/negotiation-result", {{"accept", "true"}}});
  ASSERT_EQ(r.kind, "negotiation-request");
  r = servlet.handle(
      web::HttpRequest{"/negotiation-result", {{"accept", "true"}}});
  ASSERT_EQ(r.kind, "business-result");
  EXPECT_EQ(r.fields.at("result"), "two bookings");
  EXPECT_EQ(cluster.threats().identity_count(), 2u);
}

}  // namespace
}  // namespace dedisys
