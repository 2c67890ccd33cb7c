// Runtime OCL constraints: design-phase expressions (Fig. 1.6) loaded from
// XML descriptors and enforced by the middleware without hand-written
// validate() bodies.
#include <gtest/gtest.h>

#include "constraints/config.h"
#include "constraints/ocl_constraint.h"
#include "middleware/admin.h"
#include "middleware/cluster.h"
#include "scenarios/flight.h"

namespace dedisys {
namespace {

using scenarios::FlightBooking;

constexpr const char* kDescriptor = R"(<constraints>
  <constraint name="TicketConstraint" type="HARD" priority="RELAXABLE"
              contextObject="Y" minSatisfactionDegree="POSSIBLY_SATISFIED">
    <ocl>self.soldTickets &lt;= self.seats</ocl>
    <context-class>Flight</context-class>
    <affected-methods>
      <affected-method>
        <objectMethod name="sellTickets">
          <objectClass>Flight</objectClass>
          <arguments><argument>int</argument></arguments>
        </objectMethod>
      </affected-method>
      <affected-method>
        <objectMethod name="cancelTickets">
          <objectClass>Flight</objectClass>
          <arguments><argument>int</argument></arguments>
        </objectMethod>
      </affected-method>
    </affected-methods>
  </constraint>
  <constraint name="SellCountPositive" type="PRE" priority="CRITICAL">
    <ocl>arg0 &gt; 0</ocl>
    <affected-methods>
      <affected-method>
        <objectMethod name="sellTickets">
          <objectClass>Flight</objectClass>
          <arguments><argument>int</argument></arguments>
        </objectMethod>
      </affected-method>
    </affected-methods>
  </constraint>
</constraints>)";

class OclRuntimeTest : public ::testing::Test {
 protected:
  OclRuntimeTest() : cluster_(make_config()) {
    FlightBooking::define_classes(cluster_.classes());
    ConstraintFactory empty_factory;
    loaded_ = load_constraints(kDescriptor, empty_factory,
                               cluster_.constraints());
    flight_ = FlightBooking::create_flight(cluster_.node(0), 80);
  }

  static ClusterConfig make_config() {
    ClusterConfig cfg;
    cfg.nodes = 3;
    return cfg;
  }

  Cluster cluster_;
  std::size_t loaded_ = 0;
  ObjectId flight_;
};

TEST_F(OclRuntimeTest, DescriptorLoadsWithoutFactoryClasses) {
  EXPECT_EQ(loaded_, 2u);
  auto* reg = cluster_.constraints().registration("TicketConstraint");
  ASSERT_NE(reg, nullptr);
  auto* ocl = dynamic_cast<OclConstraint*>(reg->constraint.get());
  ASSERT_NE(ocl, nullptr);
  EXPECT_EQ(ocl->expression(), "self.soldTickets <= self.seats");
}

TEST_F(OclRuntimeTest, OclInvariantEnforcedInHealthyMode) {
  FlightBooking::sell(cluster_.node(0), flight_, 80);
  EXPECT_THROW(FlightBooking::sell(cluster_.node(0), flight_, 1),
               ConstraintViolation);
  EXPECT_EQ(FlightBooking::sold(cluster_.node(0), flight_), 80);
}

TEST_F(OclRuntimeTest, OclPreconditionChecksArguments) {
  EXPECT_THROW(FlightBooking::sell(cluster_.node(0), flight_, -1),
               ConstraintViolation);
  EXPECT_EQ(FlightBooking::sold(cluster_.node(0), flight_), 0);
}

TEST_F(OclRuntimeTest, OclConstraintParticipatesInThreatHandling) {
  FlightBooking::sell(cluster_.node(0), flight_, 70);
  cluster_.inject(fault::split_indices({{0, 1}, {2}}));
  // Degraded mode: the OCL invariant becomes a possibly-satisfied threat,
  // accepted by the declared minimum satisfaction degree.
  EXPECT_NO_THROW(FlightBooking::sell(cluster_.node(0), flight_, 5));
  EXPECT_EQ(cluster_.threats().identity_count(), 1u);
  cluster_.inject(fault::Heal{});
  const auto report = cluster_.reconcile();
  EXPECT_EQ(report.constraints.removed_satisfied, 1u);
}

// Cross-object variant: the context flight is reached through a ticket's
// reference, so the analyzer classifies the invariant CrossObject and a
// degraded-mode booking yields a possibly-satisfied threat.
constexpr const char* kRefDescriptor = R"(<constraints>
  <constraint name="RefTicketConstraint" type="HARD" priority="RELAXABLE"
              minSatisfactionDegree="POSSIBLY_SATISFIED">
    <ocl>self.soldTickets &lt;= self.seats</ocl>
    <context-class>Flight</context-class>
    <affected-methods>
      <affected-method>
        <context-preparation>
          <preparation-class>ReferenceIsContextObject</preparation-class>
          <params><param name="getter" value="getFlight"/></params>
        </context-preparation>
        <objectMethod name="setFlight">
          <objectClass>Ticket</objectClass>
          <arguments><argument>object</argument></arguments>
        </objectMethod>
      </affected-method>
    </affected-methods>
  </constraint>
</constraints>)";

TEST(OclReferenceContext, DegradedBookingThreatIsRemovedAtReconciliation) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster cluster(cfg);
  AdminConsole admin(cluster);
  FlightBooking::define_classes(cluster.classes());
  cluster.classes().define("Ticket").define_property("flight", Value{},
                                                     "object");
  admin.deploy_constraints(kRefDescriptor);
  const ObjectId flight = FlightBooking::create_flight(cluster.node(0), 100);
  auto book = [&] {
    DedisysNode& node = cluster.node(0);
    TxScope tx(node.tx());
    const ObjectId ticket = node.create(tx.id(), "Ticket");
    node.invoke(tx.id(), ticket, "setFlight", {Value{flight}});
    tx.commit();
  };

  book();  // healthy: validated in full, no threat
  EXPECT_EQ(cluster.threats().identity_count(), 0u);
  cluster.inject(fault::split_indices({{0, 1}, {2}}));
  FlightBooking::sell(cluster.node(0), flight, 5);
  // The referenced flight is possibly stale (its node-2 replica is out of
  // view), so the booking commits with an accepted threat.
  book();
  EXPECT_EQ(cluster.threats().identity_count(), 1u);
  cluster.inject(fault::Heal{});

  // A backup revalidates its own replica of the flight: satisfied.
  EXPECT_TRUE(cluster.node(1)
                  .ccmgr()
                  .revalidate_for_objects("RefTicketConstraint", {flight})
                  .empty());
  const auto report = cluster.reconcile();
  EXPECT_EQ(report.constraints.reevaluated, 1u);
  EXPECT_EQ(report.constraints.removed_satisfied, 1u);
  EXPECT_EQ(cluster.threats().identity_count(), 0u);
}

TEST_F(OclRuntimeTest, MalformedOclRejectedAtDeployment) {
  ConstraintFactory empty;
  ConstraintRepository repo;
  EXPECT_THROW(load_constraints(R"(<constraints>
      <constraint name="Bad" type="HARD"><ocl>self.</ocl></constraint>
    </constraints>)",
                                empty, repo),
               ConfigError);
}

TEST_F(OclRuntimeTest, StringAndImpliesExpressionsInDescriptors) {
  // ATS-style rule expressed purely in OCL: a "Signal" component kind
  // requires a non-empty affected component.
  ConstraintFactory empty;
  ClusterConfig cfg;
  cfg.nodes = 1;
  Cluster cl(cfg);
  ClassDescriptor& report = cl.classes().define("Report");
  report.define_property("componentKind", Value{std::string{}}, "string");
  report.define_property("affectedComponent", Value{std::string{}}, "string");
  load_constraints(R"(<constraints>
      <constraint name="KindNeedsComponent" type="HARD" priority="CRITICAL">
        <ocl>self.componentKind = "Signal" implies self.affectedComponent &lt;&gt; ""</ocl>
        <context-class>Report</context-class>
        <affected-methods>
          <affected-method>
            <objectMethod name="setComponentKind">
              <objectClass>Report</objectClass>
              <arguments><argument>string</argument></arguments>
            </objectMethod>
          </affected-method>
        </affected-methods>
      </constraint>
    </constraints>)",
                   empty, cl.constraints());

  DedisysNode& n = cl.node(0);
  TxScope tx(n.tx());
  const ObjectId r = n.create(tx.id(), "Report");
  // Kind "Power" needs no component (the implication is vacuous).
  EXPECT_NO_THROW(n.invoke(tx.id(), r, "setComponentKind",
                           {Value{std::string{"Power"}}}));
  // Kind "Signal" without a component violates the rule.
  EXPECT_THROW(n.invoke(tx.id(), r, "setComponentKind",
                        {Value{std::string{"Signal"}}}),
               ConstraintViolation);
}

TEST(EntityOclEnv, ConvertsScalarsAndRejectsReferences) {
  ClusterConfig cfg;
  cfg.nodes = 1;
  Cluster cluster(cfg);
  ClassDescriptor& cls = cluster.classes().define("Mixed");
  cls.define_property("count", Value{std::int64_t{3}}, "int");
  cls.define_property("rate", Value{2.5}, "double");
  cls.define_property("label", Value{std::string{"x"}}, "string");
  cls.define_property("flag", Value{true}, "bool");
  cls.define_property("ref", Value{ObjectId{1}}, "object");

  DedisysNode& n = cluster.node(0);
  TxScope tx(n.tx());
  const ObjectId id = n.create(tx.id(), "Mixed");
  tx.commit();

  ConstraintValidationContext ctx(n.accessor(), n.id(), TxId{});
  ctx.set_context_object(id);
  EntityOclEnv env(ctx);
  EXPECT_EQ(ocl_num(env.attribute("count")), 3.0);
  EXPECT_EQ(ocl_num(env.attribute("rate")), 2.5);
  EXPECT_EQ(ocl_num(env.attribute("flag")), 1.0);
  EXPECT_EQ(std::get<std::string>(env.attribute("label")), "x");
  EXPECT_THROW((void)env.attribute("ref"), DedisysError);
  EXPECT_THROW((void)env.argument(0), DedisysError);
}

}  // namespace
}  // namespace dedisys
