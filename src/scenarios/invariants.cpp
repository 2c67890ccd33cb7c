#include "scenarios/invariants.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace dedisys::scenarios {

namespace {

std::string summarize_invariants(const ChaosResult& r) {
  std::string out;
  auto add = [&](const char* name, std::size_t count) {
    if (count == 0) return;
    if (!out.empty()) out += ", ";
    out += name;
    out += '=';
    out += std::to_string(count);
  };
  add("lost_threats", r.lost_threats);
  add("threats_remaining", r.threats_remaining);
  add("primary_violations", r.primary_violations);
  add("divergent_objects", r.divergent_objects);
  add("model_mismatches", r.model_mismatches);
  return out;
}

}  // namespace

PlanVerdict check_plan(const FaultPlan& plan, const ChaosOptions& options) {
  ChaosOptions opts = options;
  opts.plan = plan;

  PlanVerdict verdict;
  verdict.result = run_chaos(opts);
  verdict.invariants_ok = verdict.result.invariants_ok();

  const ChaosResult second = run_chaos(opts);
  verdict.deterministic = second.timeline == verdict.result.timeline;

  if (!verdict.invariants_ok) {
    verdict.violation = "invariants: " + summarize_invariants(verdict.result);
  } else if (!verdict.deterministic) {
    verdict.violation = "non-deterministic: timelines differ";
  }
  return verdict;
}

ShrinkResult shrink_plan(const FaultPlan& plan,
                         const ViolationPredicate& violates,
                         std::size_t max_runs) {
  ShrinkResult out;
  out.plan = plan;
  const std::size_t original = plan.actions.size();

  auto try_candidate = [&](FaultPlan candidate) {
    if (out.runs >= max_runs) return false;
    ++out.runs;
    if (!violates(candidate)) return false;
    out.plan = std::move(candidate);
    return true;
  };

  // Tail truncation first: violations usually reproduce without the
  // closing heal/reset sequence, and dropping the tail wholesale is the
  // cheapest big win.
  bool progress = true;
  while (progress && out.plan.actions.size() > 1 && out.runs < max_runs) {
    progress = false;
    FaultPlan candidate = out.plan;
    candidate.actions.resize(candidate.actions.size() / 2);
    if (try_candidate(std::move(candidate))) progress = true;
  }

  // ddmin: remove chunks of decreasing size while the violation persists.
  std::size_t chunk = out.plan.actions.size() / 2;
  if (chunk == 0) chunk = 1;
  while (chunk >= 1 && out.runs < max_runs) {
    bool removed_any = false;
    for (std::size_t start = 0;
         start < out.plan.actions.size() && out.runs < max_runs;) {
      if (out.plan.actions.size() <= 1) break;
      FaultPlan candidate = out.plan;
      const std::size_t end =
          std::min(start + chunk, candidate.actions.size());
      candidate.actions.erase(
          candidate.actions.begin() + static_cast<std::ptrdiff_t>(start),
          candidate.actions.begin() + static_cast<std::ptrdiff_t>(end));
      if (!candidate.actions.empty() && try_candidate(std::move(candidate))) {
        removed_any = true;  // same start now points at the next chunk
      } else {
        start += chunk;
      }
    }
    if (chunk == 1 && !removed_any) break;
    chunk = std::max<std::size_t>(1, chunk / 2);
    if (!removed_any && chunk == 1 && out.plan.actions.size() <= 1) break;
  }

  out.removed = original - out.plan.actions.size();
  return out;
}

PropertySuiteResult run_property_suite(const PropertySuiteOptions& options) {
  PropertySuiteResult out;
  RandomPlanOptions plan_options;
  plan_options.horizon = options.chaos.horizon;
  plan_options.events = options.chaos.fault_events;
  for (std::size_t n = 0; n < options.chaos.nodes; ++n) {
    plan_options.nodes.push_back(NodeId{n});
  }

  for (std::size_t i = 0; i < options.plans; ++i) {
    const std::uint64_t seed = options.first_seed + i;
    ChaosOptions chaos = options.chaos;
    chaos.seed = seed;  // workload stream still derives from the seed
    const FaultPlan plan = random_gray_plan(seed, plan_options);
    PlanVerdict verdict = check_plan(plan, chaos);
    ++out.plans_checked;
    if (verdict.ok()) continue;

    PropertyFailure failure;
    failure.seed = seed;
    failure.violation = verdict.violation;
    failure.plan = plan;
    failure.shrunk = plan;
    if (options.shrink_failures) {
      failure.shrunk =
          shrink_plan(
              plan,
              [&](const FaultPlan& candidate) {
                return !check_plan(candidate, chaos).ok();
              },
              options.shrink_budget)
              .plan;
    }
    out.failures.push_back(std::move(failure));
  }
  return out;
}

PropertySuiteResult run_corpus(const std::string& dir,
                               const ChaosOptions& options) {
  PropertySuiteResult out;
  std::error_code ec;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".plan") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());

  for (const auto& path : files) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const FaultPlan plan = plan_from_text(buffer.str());

    ChaosOptions chaos = options;
    chaos.seed = plan.seed;
    PlanVerdict verdict = check_plan(plan, chaos);
    ++out.plans_checked;
    if (verdict.ok()) continue;

    PropertyFailure failure;
    failure.seed = plan.seed;
    failure.violation = path.filename().string() + ": " + verdict.violation;
    failure.plan = plan;
    failure.shrunk = plan;
    out.failures.push_back(std::move(failure));
  }
  return out;
}

}  // namespace dedisys::scenarios
