// Chapter-2 study correctness: every approach checks the same constraints,
// detects the same violations, and the qualitative performance ordering of
// the paper holds.
#include <gtest/gtest.h>

#include "validation/harness.h"

// The PerformanceShape tests assert wall-clock cost orderings; sanitizer
// instrumentation (redzones, shadow memory) distorts the per-mechanism
// ratios enough to flip close orderings, so they are skipped under
// ASan/TSan builds (DEDISYS_SANITIZE).
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DEDISYS_TIMING_TESTS_UNRELIABLE 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DEDISYS_TIMING_TESTS_UNRELIABLE 1
#endif
#ifdef DEDISYS_TIMING_TESTS_UNRELIABLE
#define DEDISYS_SKIP_UNDER_SANITIZERS() \
  GTEST_SKIP() << "wall-clock shape assertions are skipped under sanitizers"
#else
#define DEDISYS_SKIP_UNDER_SANITIZERS() (void)0
#endif

namespace dedisys::validation {
namespace {

constexpr Approach kChecking[] = {
    Approach::Handcrafted,      Approach::InPlaceGenerated,
    Approach::WrapperGenerated, Approach::AspectInline,
    Approach::JmlStyle,         Approach::DresdenOcl,
    Approach::AspectRepo,       Approach::AspectRepoOpt,
    Approach::AopRepo,          Approach::AopRepoOpt,
    Approach::ProxyRepo,        Approach::ProxyRepoOpt,
};

class ApproachParity : public ::testing::TestWithParam<Approach> {};

TEST_P(ApproachParity, SameCheckCountsAsHandcrafted) {
  StudyApp app = StudyApp::make();
  const CheckCounters reference = run_scenario(Approach::Handcrafted, app, 3);
  app.reset();
  const CheckCounters c = run_scenario(GetParam(), app, 3);
  EXPECT_EQ(c.preconditions, reference.preconditions);
  EXPECT_EQ(c.postconditions, reference.postconditions);
  EXPECT_EQ(c.invariants, reference.invariants);
  EXPECT_EQ(c.violations, 0u);  // the scenario violates nothing
}

TEST_P(ApproachParity, DetectsAllInjectedViolations) {
  StudyApp app = StudyApp::make();
  EXPECT_EQ(run_violation_scenario(GetParam(), app), 4u);
}

INSTANTIATE_TEST_SUITE_P(AllChecking, ApproachParity,
                         ::testing::ValuesIn(kChecking),
                         [](const ::testing::TestParamInfo<Approach>& info) {
                           std::string n = to_string(info.param);
                           for (char& ch : n) {
                             if (ch == '-' || ch == ' ') ch = '_';
                           }
                           return n;
                         });

TEST(ApproachBehaviour, NoChecksDetectsNothing) {
  StudyApp app = StudyApp::make();
  EXPECT_EQ(run_violation_scenario(Approach::NoChecks, app), 0u);
}

TEST(ApproachBehaviour, ScenarioLeavesInvariantsIntact) {
  StudyApp app = StudyApp::make();
  (void)run_scenario(Approach::Handcrafted, app, 5);
  for (const Employee& e : app.employees) {
    EXPECT_EQ(e.workload, 0);
    EXPECT_EQ(e.projects, 0);
  }
  for (const Project& p : app.projects) {
    EXPECT_EQ(p.spent, 0);
    EXPECT_EQ(p.members, 0);
  }
}

TEST(ApproachBehaviour, RepoApproachesSearchFourTimesPerInterception) {
  StudyApp app = StudyApp::make();
  const CheckCounters c = run_scenario(Approach::ProxyRepo, app, 3);
  EXPECT_EQ(c.searches, 4 * c.interceptions);
}

TEST(ApproachBehaviour, StagedPipelineCountsAreMonotone) {
  StudyApp app = StudyApp::make();
  const CheckCounters intercept =
      run_repo_staged(MechKind::Aop, true, RepoStage::InterceptOnly, app, 2);
  app.reset();
  const CheckCounters search =
      run_repo_staged(MechKind::Aop, true, RepoStage::Search, app, 2);
  app.reset();
  const CheckCounters check =
      run_repo_staged(MechKind::Aop, true, RepoStage::Check, app, 2);
  EXPECT_EQ(intercept.total_checks(), 0u);
  EXPECT_EQ(intercept.searches, 0u);
  EXPECT_EQ(search.total_checks(), 0u);  // searched but not validated
  EXPECT_GT(search.searches, 0u);
  EXPECT_GT(check.total_checks(), 0u);
  EXPECT_EQ(check.interceptions, intercept.interceptions);
}

// ---------------------------------------------------------------------------
// Qualitative performance shape (generous margins; these assert orderings,
// not absolute numbers — see EXPERIMENTS.md for the measured factors).
// ---------------------------------------------------------------------------

TEST(PerformanceShape, InlineAspectsCostAboutTheSameAsHandcrafted) {
  DEDISYS_SKIP_UNDER_SANITIZERS();
  const double hand = measure_approach(Approach::Handcrafted, 5, 9);
  const double aspect = measure_approach(Approach::AspectInline, 5, 9);
  EXPECT_LT(aspect, 2.0 * hand);
  EXPECT_GT(aspect, 0.5 * hand);
}

TEST(PerformanceShape, OptimizedRepositoryBeatsNaiveRepository) {
  DEDISYS_SKIP_UNDER_SANITIZERS();
  const double opt = measure_approach(Approach::ProxyRepoOpt, 5, 9);
  const double naive = measure_approach(Approach::ProxyRepo, 5, 9);
  EXPECT_LT(2.0 * opt, naive);
}

TEST(PerformanceShape, InterpretedOclIsTheSlowestApproach) {
  DEDISYS_SKIP_UNDER_SANITIZERS();
  const double ocl = measure_approach(Approach::DresdenOcl, 5, 9);
  for (Approach a : {Approach::Handcrafted, Approach::JmlStyle,
                     Approach::AopRepo, Approach::ProxyRepo}) {
    EXPECT_GT(ocl, measure_approach(a, 5, 9)) << to_string(a);
  }
}

TEST(PerformanceShape, InterceptionCostOrderingMatchesFig25) {
  DEDISYS_SKIP_UNDER_SANITIZERS();
  // aspect < aop < proxy for pure interception (Fig. 2.5).
  const double aspect =
      measure_repo_staged(MechKind::Aspect, true, RepoStage::InterceptOnly, 5, 9);
  const double aop =
      measure_repo_staged(MechKind::Aop, true, RepoStage::InterceptOnly, 5, 9);
  const double proxy =
      measure_repo_staged(MechKind::Proxy, true, RepoStage::InterceptOnly, 5, 9);
  EXPECT_LT(aspect, aop);
  EXPECT_LT(aop, proxy);
}

TEST(PerformanceShape, ExtractionFlipsTheOrderingMatchesFig26) {
  DEDISYS_SKIP_UNDER_SANITIZERS();
  // aop < proxy < aspect once parameter extraction is included (Fig. 2.6).
  const double aspect =
      measure_repo_staged(MechKind::Aspect, true, RepoStage::Extract, 5, 9);
  const double aop =
      measure_repo_staged(MechKind::Aop, true, RepoStage::Extract, 5, 9);
  const double proxy =
      measure_repo_staged(MechKind::Proxy, true, RepoStage::Extract, 5, 9);
  EXPECT_LT(aop, proxy);
  EXPECT_LT(proxy, aspect);
}

// ---------------------------------------------------------------------------
// OCL mini-interpreter
// ---------------------------------------------------------------------------

class OclEval : public ::testing::Test {
 protected:
  OclEval() {
    employee_.workload = 10;
    employee_.max_workload = 40;
    employee_.projects = 2;
    self_ = ObjectRefl{&employee_class(), &employee_};
  }

  bool eval(const std::string& src, std::vector<Boxed> args = {}) {
    return ocl_check(parse_ocl(src), self_, args);
  }

  Employee employee_;
  ObjectRefl self_{};
};

TEST_F(OclEval, Comparisons) {
  EXPECT_TRUE(eval("self.workload <= self.max_workload"));
  EXPECT_TRUE(eval("self.workload >= 10"));
  EXPECT_FALSE(eval("self.workload > 10"));
  EXPECT_TRUE(eval("self.projects = 2"));
  EXPECT_TRUE(eval("self.projects <> 3"));
}

TEST_F(OclEval, ArithmeticAndPrecedence) {
  EXPECT_TRUE(eval("self.workload + 5 * 2 = 20"));
  EXPECT_TRUE(eval("(self.workload + 5) * 2 = 30"));
  EXPECT_TRUE(eval("self.workload - 4 / 2 = 8"));
}

TEST_F(OclEval, BooleanConnectives) {
  EXPECT_TRUE(eval("self.workload >= 0 and self.projects >= 0"));
  EXPECT_FALSE(eval("self.workload > 99 and self.projects >= 0"));
  EXPECT_TRUE(eval("self.workload > 99 or self.projects >= 0"));
  EXPECT_TRUE(eval("not self.workload > 99"));
  EXPECT_TRUE(eval("not (self.workload > 99 and self.projects = 2)"));
}

TEST_F(OclEval, BooleanLiteralsAndImplies) {
  EXPECT_TRUE(eval("true"));
  EXPECT_FALSE(eval("false"));
  EXPECT_TRUE(eval("false implies self.workload > 99"));
  EXPECT_TRUE(eval("self.workload = 10 implies self.projects = 2"));
  EXPECT_FALSE(eval("self.workload = 10 implies self.projects = 3"));
  // implies binds loosest: (a and b) implies c
  EXPECT_TRUE(eval("self.workload = 10 and self.projects = 2 implies true"));
}

TEST_F(OclEval, StringLiteralsAndComparison) {
  employee_.name = "alice";
  EXPECT_TRUE(eval("self.name = \"alice\""));
  EXPECT_FALSE(eval("self.name = \"bob\""));
  EXPECT_TRUE(eval("self.name <> 'bob'"));
  EXPECT_TRUE(eval("self.name = 'alice' implies self.workload >= 0"));
  EXPECT_THROW((void)parse_ocl("self.name = \"unterminated"), ConfigError);
}

TEST_F(OclEval, ArgumentsAccessible) {
  EXPECT_TRUE(eval("arg0 > 0 and arg0 <= 24", {Boxed{3.0}}));
  EXPECT_FALSE(eval("arg0 > 0", {Boxed{-1.0}}));
  EXPECT_TRUE(eval("self.workload >= arg0", {Boxed{10.0}}));
}

TEST_F(OclEval, ParseErrors) {
  EXPECT_THROW((void)parse_ocl(""), ConfigError);
  EXPECT_THROW((void)parse_ocl("self."), ConfigError);
  EXPECT_THROW((void)parse_ocl("(1 > 0"), ConfigError);
  EXPECT_THROW((void)parse_ocl("1 > 0 trailing"), ConfigError);
}

TEST_F(OclEval, NestingDepthIsBounded) {
  auto parens = [](std::size_t depth) {
    return std::string(depth, '(') + "1 > 0" + std::string(depth, ')');
  };
  auto nots = [](std::size_t depth) {
    std::string text;
    for (std::size_t i = 0; i < depth; ++i) text += "not ";
    return text + "true";
  };
  EXPECT_TRUE(eval(parens(kMaxOclDepth)));
  EXPECT_TRUE(eval(nots(kMaxOclDepth)));  // an even number of negations
  EXPECT_THROW((void)parse_ocl(parens(kMaxOclDepth + 1)), ConfigError);
  EXPECT_THROW((void)parse_ocl(nots(kMaxOclDepth + 1)), ConfigError);
  // Parentheses and negations share one budget.
  EXPECT_THROW((void)parse_ocl("not " + parens(kMaxOclDepth)), ConfigError);
  // So does each binary operator of a flat, left-deep chain.
  auto chain = [](const std::string& op, std::size_t operators) {
    const std::string term =
        op == "+" || op == "*" ? std::string("1") : std::string("true");
    std::string text = term;
    for (std::size_t i = 0; i < operators; ++i) text += " " + op + " " + term;
    return text;
  };
  const std::vector<std::string> chain_ops{"+", "*", "and", "or", "implies"};
  for (const std::string& op : chain_ops) {
    EXPECT_TRUE(eval(chain(op, kMaxOclDepth))) << op;
    EXPECT_THROW((void)parse_ocl(chain(op, kMaxOclDepth + 1)), ConfigError)
        << op;
  }
  // Depth bombs fail with the typed error naming the limit instead of
  // exhausting the stack (or overflowing it when the tree is released).
  std::vector<std::string> bombs{std::string(200000, '('), nots(200000)};
  for (const std::string& op : chain_ops) {
    bombs.push_back(chain(op, 1000000 - 1));  // 1,000,000 terms
  }
  for (const std::string& bomb : bombs) {
    try {
      (void)parse_ocl(bomb);
      ADD_FAILURE() << "a depth bomb parsed: " << bomb.substr(0, 20);
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(kMaxOclDepth)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(OclEval, UnknownAttributeFailsAtEvaluation) {
  EXPECT_THROW((void)eval("self.nonexistent > 0"), DedisysError);
}

TEST(ReflectionLayer, GetMethodFindsBySignature) {
  const ClassInfo& cls = employee_class();
  const MethodInfo* m = cls.get_method("addWork", {"double"});
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->key, "addWork(double)");
  EXPECT_EQ(cls.get_method("addWork", {}), nullptr);
  EXPECT_EQ(cls.get_method("nope", {}), nullptr);
}

TEST(ReflectionLayer, BoxedAttributeAccess) {
  Project p;
  p.spent = 12.5;
  ObjectRefl refl{&project_class(), &p};
  EXPECT_EQ(boxed_num(refl.get("spent")), 12.5);
  EXPECT_THROW((void)refl.get("nope"), DedisysError);
  EXPECT_THROW(boxed_num(Boxed{std::string{"str"}}), DedisysError);
}

TEST(StudyRepositoryTest, CachedLookupSurvivesManyEntries) {
  // Paper Section 2.3.2: cached lookup time does not depend on the number
  // of registrations.
  StudyRepository repo;
  StudyConstraintSet::instance().populate(repo);
  repo.set_caching(true);
  const auto& a =
      repo.lookup("Employee", "addWork(double)", StudyConstraintType::Invariant);
  EXPECT_EQ(a.size(), 5u);
  const auto& pre = repo.lookup("Employee", "addWork(double)",
                                StudyConstraintType::Precondition);
  EXPECT_EQ(pre.size(), 1u);
  // Unknown combinations return empty, not errors.
  EXPECT_TRUE(repo.lookup("Employee", "nope()",
                          StudyConstraintType::Invariant)
                  .empty());
}

}  // namespace
}  // namespace dedisys::validation
