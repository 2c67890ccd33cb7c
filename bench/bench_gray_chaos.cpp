// Gray-failure property harness driver.
//
// Runs the randomized invariant suite of scenarios/invariants.h: N seeded
// random gray fault plans (one-way cuts, flapping links, slow nodes,
// clock skew), each checked for the dependability invariants plus
// determinism; violating plans are shrunk to a minimal reproduction and
// printed in the corpus text format.
//
// Usage:
//   bench_gray_chaos [--plans N] [--seed N] [--nodes N] [--ops N]
//                    [--events N] [--horizon-ms N] [--timeline]
//                    [--selftest] [--corpus DIR]
//
// Modes:
//   default     run the property suite; exit 1 on any surviving violation
//   --selftest  shrinker self-check: a synthetic predicate must minimize
//               to exactly the culprit action
//   --corpus D  replay every *.plan file in D through the checker
//   --timeline  print the trace timeline of one gray run (determinism
//               diffing in check.sh --gray)
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "scenarios/invariants.h"

namespace {

using dedisys::FaultPlan;
using dedisys::NodeId;
using dedisys::RandomPlanOptions;
namespace fault = dedisys::fault;
namespace scenarios = dedisys::scenarios;

std::uint64_t parse_u64(const char* text) {
  return std::strtoull(text, nullptr, 10);
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--plans N] [--seed N] [--nodes N] [--ops N] [--events N]"
               " [--horizon-ms N] [--timeline] [--selftest] [--corpus DIR]\n";
  return 2;
}

void print_failures(const scenarios::PropertySuiteResult& result) {
  for (const auto& failure : result.failures) {
    std::cerr << "PROPERTY VIOLATION seed=" << failure.seed << ": "
              << failure.violation << "\n"
              << "  original plan: " << failure.plan.size() << " ops, shrunk: "
              << failure.shrunk.size() << " ops\n"
              << dedisys::plan_to_text(failure.shrunk);
  }
}

/// Shrinker mechanics without chaos runs: the predicate is "the plan still
/// contains the crash of node 1".  ddmin must strip everything else.
int selftest_synthetic() {
  RandomPlanOptions plan_options;
  for (std::size_t n = 0; n < 3; ++n) plan_options.nodes.push_back(NodeId{n});
  plan_options.events = 14;
  FaultPlan noisy = dedisys::random_gray_plan(77, plan_options);
  noisy.add(dedisys::sim_ms(50), fault::Crash{NodeId{1}});
  noisy.sort();

  const auto has_crash_of_1 = [](const FaultPlan& plan) {
    for (const auto& action : plan.actions) {
      const auto* crash = std::get_if<fault::Crash>(&action.op);
      if (crash != nullptr && crash->node == NodeId{1}) return true;
    }
    return false;
  };
  const scenarios::ShrinkResult shrunk =
      scenarios::shrink_plan(noisy, has_crash_of_1, 500);
  if (shrunk.plan.size() != 1 || !has_crash_of_1(shrunk.plan)) {
    std::cerr << "selftest: synthetic shrink kept " << shrunk.plan.size()
              << " ops (want exactly the crash)\n"
              << dedisys::plan_to_text(shrunk.plan);
    return 1;
  }
  std::cerr << "selftest: synthetic shrink ok (" << shrunk.runs << " runs, "
            << shrunk.removed << " ops removed)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  scenarios::PropertySuiteOptions options;
  options.chaos.ops = 40;
  options.chaos.fault_events = 10;
  options.chaos.horizon = dedisys::sim_ms(250);
  bool selftest = false;
  bool print_timeline = false;
  std::string corpus_dir;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(usage(argv[0]));
      return argv[++i];
    };
    if (std::strcmp(arg, "--plans") == 0) {
      options.plans = static_cast<std::size_t>(parse_u64(value()));
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.first_seed = parse_u64(value());
    } else if (std::strcmp(arg, "--nodes") == 0) {
      options.chaos.nodes = static_cast<std::size_t>(parse_u64(value()));
    } else if (std::strcmp(arg, "--ops") == 0) {
      options.chaos.ops = static_cast<std::size_t>(parse_u64(value()));
    } else if (std::strcmp(arg, "--events") == 0) {
      options.chaos.fault_events = static_cast<std::size_t>(parse_u64(value()));
    } else if (std::strcmp(arg, "--horizon-ms") == 0) {
      options.chaos.horizon = dedisys::sim_ms(parse_u64(value()));
    } else if (std::strcmp(arg, "--timeline") == 0) {
      print_timeline = true;
    } else if (std::strcmp(arg, "--selftest") == 0) {
      selftest = true;
    } else if (std::strcmp(arg, "--corpus") == 0) {
      corpus_dir = value();
    } else {
      return usage(argv[0]);
    }
  }

  if (selftest) return selftest_synthetic();

  if (print_timeline) {
    scenarios::ChaosOptions chaos = options.chaos;
    chaos.seed = options.first_seed;
    chaos.gray = true;
    std::cout << scenarios::run_chaos(chaos).timeline;
    return 0;
  }

  if (!corpus_dir.empty()) {
    const scenarios::PropertySuiteResult result =
        scenarios::run_corpus(corpus_dir, options.chaos);
    std::cerr << "corpus: " << result.plans_checked << " plan(s) checked, "
              << result.failures.size() << " violation(s)\n";
    print_failures(result);
    return result.ok() ? 0 : 1;
  }

  const scenarios::PropertySuiteResult result =
      scenarios::run_property_suite(options);
  std::cerr << "property suite: " << result.plans_checked
            << " gray plan(s) checked (seeds " << options.first_seed << ".."
            << options.first_seed + options.plans - 1 << "), "
            << result.failures.size() << " violation(s)\n";
  print_failures(result);
  return result.ok() ? 0 : 1;
}
