#include <gtest/gtest.h>

#include "constraints/config.h"
#include "constraints/negotiation.h"
#include "constraints/repository.h"
#include "constraints/satisfaction.h"
#include "constraints/threats.h"
#include "runtime/sim_runtime.h"

namespace dedisys {
namespace {

// ---------------------------------------------------------------------------
// Satisfaction degrees (Section 3.1)
// ---------------------------------------------------------------------------

constexpr SatisfactionDegree kAll[] = {
    SatisfactionDegree::Violated, SatisfactionDegree::Uncheckable,
    SatisfactionDegree::PossiblyViolated,
    SatisfactionDegree::PossiblySatisfied, SatisfactionDegree::Satisfied};

TEST(Satisfaction, ThreatClassification) {
  EXPECT_FALSE(is_threat(SatisfactionDegree::Satisfied));
  EXPECT_FALSE(is_threat(SatisfactionDegree::Violated));
  EXPECT_TRUE(is_threat(SatisfactionDegree::Uncheckable));
  EXPECT_TRUE(is_threat(SatisfactionDegree::PossiblyViolated));
  EXPECT_TRUE(is_threat(SatisfactionDegree::PossiblySatisfied));
}

TEST(Satisfaction, StringRoundTrip) {
  for (SatisfactionDegree d : kAll) {
    EXPECT_EQ(degree_from_string(to_string(d)), d);
  }
  EXPECT_THROW((void)degree_from_string("nonsense"), ConfigError);
}

/// Property sweep: combine() over every ordered pair follows the rules of
/// Section 3.1 exactly (minimum under the total order).
class CombineProperty
    : public ::testing::TestWithParam<
          std::tuple<SatisfactionDegree, SatisfactionDegree>> {};

TEST_P(CombineProperty, MatchesSectionThreeRules) {
  const auto [a, b] = GetParam();
  const SatisfactionDegree c = combine(a, b);
  // Commutative.
  EXPECT_EQ(c, combine(b, a));
  // Idempotent on equal inputs.
  EXPECT_EQ(combine(a, a), a);
  // Never better than either input, and equal to one of them.
  EXPECT_TRUE(c == a || c == b);
  EXPECT_FALSE(at_least(c, SatisfactionDegree::Satisfied) &&
               (a != SatisfactionDegree::Satisfied ||
                b != SatisfactionDegree::Satisfied));
  // Violated dominates everything.
  if (a == SatisfactionDegree::Violated || b == SatisfactionDegree::Violated) {
    EXPECT_EQ(c, SatisfactionDegree::Violated);
  }
  // Satisfied is the identity.
  if (a == SatisfactionDegree::Satisfied) {
    EXPECT_EQ(c, b);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, CombineProperty,
    ::testing::Combine(::testing::ValuesIn(kAll), ::testing::ValuesIn(kAll)));

// ---------------------------------------------------------------------------
// Repository
// ---------------------------------------------------------------------------

ConstraintPtr make_constraint(const std::string& name,
                              ConstraintType type = ConstraintType::HardInvariant) {
  return std::make_shared<FunctionConstraint>(
      name, type, ConstraintPriority::Tradeable,
      [](ConstraintValidationContext&) { return true; });
}

ConstraintRegistration registration(const std::string& name,
                                    const std::string& cls,
                                    const std::string& method,
                                    ConstraintType type =
                                        ConstraintType::HardInvariant) {
  ConstraintRegistration reg;
  reg.constraint = make_constraint(name, type);
  reg.affected_methods.push_back(AffectedMethod{
      cls, MethodSignature{method, {}},
      ContextPreparation{ContextPreparationKind::CalledObject, ""}});
  return reg;
}

class RepositoryTest : public ::testing::Test {
 protected:
  ConstraintRepository repo_;
};

TEST_F(RepositoryTest, LookupFindsAffectedConstraints) {
  repo_.register_constraint(registration("C1", "A", "m"));
  repo_.register_constraint(registration("C2", "A", "m"));
  repo_.register_constraint(registration("C3", "A", "other"));
  repo_.register_constraint(registration("C4", "B", "m"));
  const auto& matches =
      repo_.lookup("A", MethodSignature{"m", {}}, ConstraintType::HardInvariant);
  EXPECT_EQ(matches.size(), 2u);
}

TEST_F(RepositoryTest, LookupFiltersByType) {
  repo_.register_constraint(
      registration("Pre", "A", "m", ConstraintType::Precondition));
  repo_.register_constraint(
      registration("Hard", "A", "m", ConstraintType::HardInvariant));
  EXPECT_EQ(repo_.lookup("A", {"m", {}}, ConstraintType::Precondition).size(),
            1u);
  EXPECT_EQ(repo_.lookup("A", {"m", {}}, ConstraintType::SoftInvariant).size(),
            0u);
}

TEST_F(RepositoryTest, DuplicateNamesRejected) {
  repo_.register_constraint(registration("C1", "A", "m"));
  EXPECT_THROW(repo_.register_constraint(registration("C1", "B", "n")),
               ConfigError);
}

TEST_F(RepositoryTest, RuntimeDisableAndRemove) {
  repo_.register_constraint(registration("C1", "A", "m"));
  EXPECT_EQ(repo_.lookup("A", {"m", {}}, ConstraintType::HardInvariant).size(),
            1u);
  repo_.set_enabled("C1", false);
  EXPECT_EQ(repo_.lookup("A", {"m", {}}, ConstraintType::HardInvariant).size(),
            0u);
  repo_.set_enabled("C1", true);
  EXPECT_EQ(repo_.lookup("A", {"m", {}}, ConstraintType::HardInvariant).size(),
            1u);
  repo_.remove("C1");
  EXPECT_EQ(repo_.lookup("A", {"m", {}}, ConstraintType::HardInvariant).size(),
            0u);
  EXPECT_THROW(repo_.remove("C1"), ConfigError);
}

TEST_F(RepositoryTest, CachedAndNaiveSearchAgree) {
  for (int i = 0; i < 20; ++i) {
    repo_.register_constraint(
        registration("C" + std::to_string(i), i % 2 == 0 ? "A" : "B", "m"));
  }
  repo_.set_caching(true);
  const auto cached =
      repo_.lookup("A", {"m", {}}, ConstraintType::HardInvariant);
  repo_.set_caching(false);
  const auto naive = repo_.lookup("A", {"m", {}}, ConstraintType::HardInvariant);
  ASSERT_EQ(cached.size(), naive.size());
  for (std::size_t i = 0; i < cached.size(); ++i) {
    EXPECT_EQ(cached[i].constraint, naive[i].constraint);
  }
}

TEST_F(RepositoryTest, CacheInvalidatedOnMutation) {
  repo_.register_constraint(registration("C1", "A", "m"));
  repo_.set_caching(true);
  (void)repo_.lookup("A", {"m", {}}, ConstraintType::HardInvariant);
  repo_.register_constraint(registration("C2", "A", "m"));
  EXPECT_EQ(repo_.lookup("A", {"m", {}}, ConstraintType::HardInvariant).size(),
            2u);
}

TEST_F(RepositoryTest, SearchCountTracksQueries) {
  repo_.register_constraint(registration("C1", "A", "m"));
  const std::size_t before = repo_.search_count();
  (void)repo_.lookup("A", {"m", {}}, ConstraintType::HardInvariant);
  (void)repo_.lookup("A", {"m", {}}, ConstraintType::Precondition);
  EXPECT_EQ(repo_.search_count(), before + 2);
}

TEST(RepositoryCaching, SetCachingIsIdempotentAndCountersTrack) {
  ConstraintRepository repo;
  ConstraintRegistration reg;
  reg.constraint = std::make_shared<FunctionConstraint>(
      "C", ConstraintType::HardInvariant, ConstraintPriority::Tradeable,
      [](ConstraintValidationContext&) { return true; });
  reg.affected_methods.push_back(AffectedMethod{
      "A", MethodSignature{"m", {}},
      ContextPreparation{ContextPreparationKind::CalledObject, ""}});
  repo.register_constraint(std::move(reg));

  (void)repo.lookup("A", {"m", {}}, ConstraintType::HardInvariant);  // miss
  (void)repo.lookup("A", {"m", {}}, ConstraintType::HardInvariant);  // hit
  EXPECT_EQ(repo.cache_miss_count(), 1u);
  EXPECT_EQ(repo.cache_hit_count(), 1u);

  repo.set_caching(true);  // idempotent: the warm cache survives
  (void)repo.lookup("A", {"m", {}}, ConstraintType::HardInvariant);
  EXPECT_EQ(repo.cache_hit_count(), 2u);
  EXPECT_EQ(repo.cache_miss_count(), 1u);

  repo.set_caching(false);  // a real transition still drops the cache
  (void)repo.lookup("A", {"m", {}}, ConstraintType::HardInvariant);
  EXPECT_EQ(repo.cache_hit_count(), 2u);  // naive path: counters untouched
  EXPECT_EQ(repo.cache_miss_count(), 1u);

  repo.set_caching(true);
  (void)repo.lookup("A", {"m", {}}, ConstraintType::HardInvariant);
  EXPECT_EQ(repo.cache_miss_count(), 2u);  // the cache had been invalidated
  EXPECT_EQ(repo.search_count(), 5u);
}

// ---------------------------------------------------------------------------
// Configuration parsing (Listing 4.1)
// ---------------------------------------------------------------------------

class ConfigTest : public ::testing::Test {
 protected:
  ConfigTest() {
    factory_.register_class(
        "TrueConstraint",
        [](const std::string& name, ConstraintType type,
           ConstraintPriority prio) -> ConstraintPtr {
          return std::make_shared<FunctionConstraint>(
              name, type, prio,
              [](ConstraintValidationContext&) { return true; });
        });
  }

  ConstraintFactory factory_;
  ConstraintRepository repo_;
};

TEST_F(ConfigTest, ParsesFullDescriptor) {
  const char* xml = R"(<constraints>
    <!-- comment -->
    <constraint name="C1" type="HARD" priority="RELAXABLE" contextObject="Y"
                minSatisfactionDegree="POSSIBLY_SATISFIED" intraObject="Y">
      <class>TrueConstraint</class>
      <context-class>Flight</context-class>
      <description>soldTickets &lt;= seats</description>
      <freshness class="Flight" maxAge="3"/>
      <affected-methods>
        <affected-method>
          <context-preparation>
            <preparation-class>CalledObjectIsContextObject</preparation-class>
          </context-preparation>
          <objectMethod name="sellTickets">
            <objectClass>Flight</objectClass>
            <arguments><argument>int</argument></arguments>
          </objectMethod>
        </affected-method>
      </affected-methods>
    </constraint>
  </constraints>)";

  EXPECT_EQ(load_constraints(xml, factory_, repo_), 1u);
  Constraint& c = repo_.find("C1");
  EXPECT_EQ(c.type(), ConstraintType::HardInvariant);
  EXPECT_TRUE(c.is_tradeable());
  EXPECT_TRUE(c.intra_object());
  EXPECT_TRUE(c.context_object_needed());
  EXPECT_EQ(c.min_satisfaction_degree(),
            SatisfactionDegree::PossiblySatisfied);
  EXPECT_EQ(c.description(), "soldTickets <= seats");
  EXPECT_EQ(c.freshness_criteria().at("Flight"), 3u);
  const auto& matches = repo_.lookup("Flight", {"sellTickets", {"int"}},
                                     ConstraintType::HardInvariant);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].preparation->kind, ContextPreparationKind::CalledObject);
}

TEST_F(ConfigTest, ParsesReferenceGetterPreparation) {
  const char* xml = R"(<constraints>
    <constraint name="C1" type="SOFT">
      <class>TrueConstraint</class>
      <affected-methods>
        <affected-method>
          <context-preparation>
            <preparation-class>ReferenceIsContextObject</preparation-class>
            <params><param name="getter" value="getReport"/></params>
          </context-preparation>
          <objectMethod name="setKind">
            <objectClass>Alarm</objectClass>
            <arguments><argument>string</argument></arguments>
          </objectMethod>
        </affected-method>
      </affected-methods>
    </constraint>
  </constraints>)";
  load_constraints(xml, factory_, repo_);
  const auto& matches = repo_.lookup("Alarm", {"setKind", {"string"}},
                                     ConstraintType::SoftInvariant);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].preparation->kind,
            ContextPreparationKind::ReferenceGetter);
  EXPECT_EQ(matches[0].preparation->getter, "getReport");
}

TEST_F(ConfigTest, RejectsMalformedInput) {
  EXPECT_THROW(load_constraints("<constraints>", factory_, repo_), ConfigError);
  EXPECT_THROW(load_constraints("<wrong/>", factory_, repo_), ConfigError);
  EXPECT_THROW(load_constraints(
                   "<constraints><constraint type=\"HARD\">"
                   "<class>TrueConstraint</class></constraint></constraints>",
                   factory_, repo_),
               ConfigError);  // missing name
  EXPECT_THROW(
      load_constraints("<constraints><constraint name=\"C\" type=\"BOGUS\">"
                       "<class>TrueConstraint</class></constraint></constraints>",
                       factory_, repo_),
      ConfigError);  // bad type
  EXPECT_THROW(
      load_constraints("<constraints><constraint name=\"C\" type=\"HARD\">"
                       "<class>Unknown</class></constraint></constraints>",
                       factory_, repo_),
      ConfigError);  // unknown implementation class
}

TEST(XmlParser, HandlesEntitiesSelfClosingAndMismatch) {
  const XmlNode root = parse_xml(
      "<?xml version=\"1.0\"?><a x=\"1 &amp; 2\"><b/><c>text</c></a>");
  EXPECT_EQ(root.tag, "a");
  EXPECT_EQ(root.attr("x"), "1 & 2");
  EXPECT_NE(root.child("b"), nullptr);
  EXPECT_EQ(root.require_child("c").text, "text");
  EXPECT_THROW(parse_xml("<a><b></a>"), ConfigError);
  EXPECT_THROW(parse_xml("<a></a><b/>"), ConfigError);
}

TEST(XmlParser, NestingDepthIsBounded) {
  auto nested = [](std::size_t depth) {
    std::string text;
    for (std::size_t i = 0; i < depth; ++i) text += "<a>";
    for (std::size_t i = 0; i < depth; ++i) text += "</a>";
    return text;
  };
  EXPECT_EQ(parse_xml(nested(kMaxXmlDepth)).tag, "a");
  EXPECT_THROW((void)parse_xml(nested(kMaxXmlDepth + 1)), ConfigError);
  // A depth bomb fails with the typed error naming the limit instead of
  // exhausting the stack.
  std::string bomb;
  for (int i = 0; i < 200000; ++i) bomb += "<a>";
  try {
    (void)parse_xml(bomb);
    ADD_FAILURE() << "200000 nested elements parsed";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(kMaxXmlDepth)),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Threat store (Section 3.2.2, 5.5.1)
// ---------------------------------------------------------------------------

class ThreatStoreTest : public ::testing::Test {
 protected:
  ThreatStoreTest() : db_(rt_), store_(db_) {}

  static ConsistencyThreat threat(const std::string& constraint,
                                  std::uint64_t ctx_object) {
    ConsistencyThreat t;
    t.constraint_name = constraint;
    t.context_object = ObjectId{ctx_object};
    t.degree = SatisfactionDegree::PossiblySatisfied;
    t.affected_objects = {ObjectId{ctx_object}, ObjectId{ctx_object + 1}};
    t.application_data = "payload";
    t.instructions.allow_rollback = true;
    return t;
  }

  CostModel cost_;
  SimRuntime rt_{cost_};
  RecordStore db_;
  ThreatStore store_;
};

TEST_F(ThreatStoreTest, SerializationRoundTrip) {
  const ConsistencyThreat t = threat("C1", 7);
  const ConsistencyThreat back = ThreatStore::deserialize(
      ThreatStore::serialize(t));
  EXPECT_EQ(back.constraint_name, t.constraint_name);
  EXPECT_EQ(back.context_object, t.context_object);
  EXPECT_EQ(back.degree, t.degree);
  EXPECT_EQ(back.affected_objects, t.affected_objects);
  EXPECT_EQ(back.application_data, t.application_data);
  EXPECT_EQ(back.instructions.allow_rollback, t.instructions.allow_rollback);
}

TEST_F(ThreatStoreTest, IdentityCombinesConstraintAndContext) {
  EXPECT_EQ(threat("C1", 7).identity(), threat("C1", 7).identity());
  EXPECT_NE(threat("C1", 7).identity(), threat("C1", 8).identity());
  EXPECT_NE(threat("C1", 7).identity(), threat("C2", 7).identity());
  ConsistencyThreat no_ctx;
  no_ctx.constraint_name = "C1";
  EXPECT_EQ(no_ctx.identity(), "C1@-");
}

TEST_F(ThreatStoreTest, IdenticalOncePersistsSingleIdentity) {
  store_.set_policy(ThreatHistoryPolicy::IdenticalOnce);
  EXPECT_TRUE(store_.store(threat("C1", 7)));
  const std::size_t writes_after_first = db_.write_count();
  EXPECT_EQ(writes_after_first, 3u);  // threat row + two object rows
  EXPECT_FALSE(store_.store(threat("C1", 7)));
  EXPECT_FALSE(store_.store(threat("C1", 7)));
  EXPECT_EQ(db_.write_count(), writes_after_first);  // only reads afterwards
  EXPECT_EQ(store_.identity_count(), 1u);
  EXPECT_EQ(store_.total_occurrences(), 3u);
}

TEST_F(ThreatStoreTest, FullHistoryPersistsEveryOccurrence) {
  store_.set_policy(ThreatHistoryPolicy::FullHistory);
  store_.store(threat("C1", 7));
  const std::size_t first = db_.write_count();
  store_.store(threat("C1", 7));
  EXPECT_EQ(db_.write_count(), first + 2);  // two rows per identical threat
  EXPECT_EQ(store_.identity_count(), 1u);
  EXPECT_EQ(store_.total_occurrences(), 2u);
}

TEST_F(ThreatStoreTest, RemoveDeletesAllOccurrences) {
  store_.set_policy(ThreatHistoryPolicy::FullHistory);
  const ConsistencyThreat t = threat("C1", 7);
  store_.store(t);
  store_.store(t);
  store_.store(threat("C2", 9));
  store_.remove(t.identity());
  EXPECT_EQ(store_.identity_count(), 1u);
  EXPECT_FALSE(store_.has(t.identity()));
  EXPECT_TRUE(store_.has(threat("C2", 9).identity()));
  EXPECT_NO_THROW(store_.remove("missing@1"));
}

TEST_F(ThreatStoreTest, LoadAllReturnsOccurrenceCounts) {
  store_.store(threat("C1", 7));
  store_.store(threat("C1", 7));
  store_.store(threat("C2", 9));
  const auto all = store_.load_all();
  ASSERT_EQ(all.size(), 2u);
  std::size_t total = 0;
  for (const auto& st : all) total += st.occurrences;
  EXPECT_EQ(total, 3u);
}

}  // namespace
}  // namespace dedisys
