// Constraint repository (Sections 2.1.4, 4.2.2).
//
// All constraints of an application are registered here together with
// their affected methods and context-preparation rules.  The repository
// can be queried by (class, method, constraint type); constraints can be
// added, removed, enabled and disabled at runtime — the flexibility that
// motivates explicit runtime constraints in the first place.
//
// Two search modes reproduce the Chapter-2 study: a naive scan that walks
// every registration per query, and an optimized mode that caches query
// results in a hash table keyed by class+method+type (Section 2.2.1).
// Every change that could stale a query result moves generation(), so
// results derived from lookup() (the CCMgr's call plans) know when to
// rebuild.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/report.h"
#include "constraints/constraint.h"
#include "objects/class_descriptor.h"
#include "util/errors.h"

namespace dedisys {

/// How to derive the context object from an intercepted invocation
/// (the <preparation-class> of Listing 4.1).
enum class ContextPreparationKind {
  None,            ///< Constraint needs no context object (query-based).
  CalledObject,    ///< The called object is the context object.
  ReferenceGetter, ///< Follow a reference: call `getter` on the called object.
};

struct ContextPreparation {
  ContextPreparationKind kind = ContextPreparationKind::CalledObject;
  /// Getter method name for ReferenceGetter (e.g. "getRepairReport").
  std::string getter;
};

struct AffectedMethod {
  std::string class_name;
  MethodSignature method;
  ContextPreparation preparation;
};

struct ConstraintRegistration {
  ConstraintPtr constraint;
  /// Context class for invariant constraints (may be empty).
  std::string context_class;
  std::vector<AffectedMethod> affected_methods;
  /// Static-analysis report produced at registration time (PR 3); null
  /// until the analyzer runs.  Null means "no static knowledge": the
  /// CCMgr then validates exhaustively, exactly as before.
  std::shared_ptr<const analysis::AnalysisReport> analysis;
};

class ConstraintRepository {
 public:
  struct Match {
    Constraint* constraint;
    const ContextPreparation* preparation;
    /// Null when the constraint was never analyzed.
    const analysis::AnalysisReport* analysis;
  };

  // -- runtime management ---------------------------------------------------

  void register_constraint(ConstraintRegistration reg) {
    if (!reg.constraint) throw ConfigError("null constraint registration");
    const std::string& name = reg.constraint->name();
    if (by_name_.count(name) != 0) {
      throw ConfigError("duplicate constraint name: " + name);
    }
    by_name_[name] = registrations_.size();
    registrations_.push_back(std::move(reg));
    config_.reset();  // stale: the deployed set changed
    invalidate_cache();
  }

  /// Removes a constraint at runtime.
  void remove(const std::string& name) {
    auto it = by_name_.find(name);
    if (it == by_name_.end()) throw ConfigError("unknown constraint: " + name);
    registrations_.erase(registrations_.begin() +
                         static_cast<std::ptrdiff_t>(it->second));
    by_name_.clear();
    for (std::size_t i = 0; i < registrations_.size(); ++i) {
      by_name_[registrations_[i].constraint->name()] = i;
    }
    config_.reset();  // stale: the deployed set changed
    invalidate_cache();
  }

  void set_enabled(const std::string& name, bool enabled) {
    find(name).set_enabled(enabled);
    invalidate_cache();
  }

  [[nodiscard]] Constraint& find(const std::string& name) {
    auto it = by_name_.find(name);
    if (it == by_name_.end()) throw ConfigError("unknown constraint: " + name);
    return *registrations_[it->second].constraint;
  }

  [[nodiscard]] const ConstraintRegistration* registration(
      const std::string& name) const {
    auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : &registrations_[it->second];
  }

  /// Attaches a static-analysis report to a registered constraint.
  /// Cached Match vectors carry raw report pointers, so the query cache
  /// is invalidated.
  void set_analysis(const std::string& name,
                    std::shared_ptr<const analysis::AnalysisReport> report) {
    auto it = by_name_.find(name);
    if (it == by_name_.end()) throw ConfigError("unknown constraint: " + name);
    registrations_[it->second].analysis = std::move(report);
    invalidate_cache();
  }

  /// Attaches the whole-configuration analysis (conflicts, subsumption,
  /// interference clustering — PR 8).  Reset to null whenever the
  /// deployed set changes, until the analyzer runs again.
  void set_config_analysis(
      std::shared_ptr<const analysis::ConfigAnalysis> config) {
    config_ = std::move(config);
  }

  /// Null until analyze_repository ran (and since the last change).
  [[nodiscard]] const analysis::ConfigAnalysis* config_analysis() const {
    return config_.get();
  }

  [[nodiscard]] const std::vector<ConstraintRegistration>& registrations()
      const {
    return registrations_;
  }

  [[nodiscard]] std::size_t size() const { return registrations_.size(); }

  // -- search ----------------------------------------------------------------

  /// Enables/disables the query cache (the "optimized repository").
  /// Idempotent: re-asserting the current mode keeps the warm cache.
  void set_caching(bool on) {
    if (on == caching_) return;
    caching_ = on;
    invalidate_cache();
  }
  [[nodiscard]] bool caching() const { return caching_; }

  /// Moves whenever cached query results are dropped: on every
  /// registration change, enable/disable, analysis attach and caching
  /// switch.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// All enabled constraints of `type` affected by `method` on
  /// `class_name`, each with its context-preparation rule.
  const std::vector<Match>& lookup(const std::string& class_name,
                                   const MethodSignature& method,
                                   ConstraintType type) {
    ++searches_;
    if (!caching_) {
      scratch_ = search(class_name, method, type);
      return scratch_;
    }
    const std::string key =
        class_name + '#' + method.key() + '#' +
        std::to_string(static_cast<int>(type));
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++cache_hits_;
      return it->second;
    }
    ++cache_misses_;
    auto [ins, _] = cache_.emplace(key, search(class_name, method, type));
    return ins->second;
  }

  [[nodiscard]] std::size_t search_count() const { return searches_; }
  /// Query-cache hit/miss counters (only move while caching is on).
  [[nodiscard]] std::size_t cache_hit_count() const { return cache_hits_; }
  [[nodiscard]] std::size_t cache_miss_count() const { return cache_misses_; }

 private:
  /// Linear scan over every registration and affected method — the
  /// non-optimized search whose cost dominates Fig. 2.2.
  std::vector<Match> search(const std::string& class_name,
                            const MethodSignature& method,
                            ConstraintType type) const {
    std::vector<Match> out;
    const std::string method_key = method.key();
    for (const auto& reg : registrations_) {
      Constraint& c = *reg.constraint;
      if (!c.enabled() || c.type() != type) continue;
      for (const auto& am : reg.affected_methods) {
        if (am.class_name == class_name && am.method.key() == method_key) {
          out.push_back(Match{&c, &am.preparation, reg.analysis.get()});
          break;
        }
      }
    }
    return out;
  }

  void invalidate_cache() {
    cache_.clear();
    ++generation_;
  }

  std::vector<ConstraintRegistration> registrations_;
  std::shared_ptr<const analysis::ConfigAnalysis> config_;
  std::unordered_map<std::string, std::size_t> by_name_;
  bool caching_ = true;
  std::unordered_map<std::string, std::vector<Match>> cache_;
  std::vector<Match> scratch_;
  std::uint64_t generation_ = 0;
  std::size_t searches_ = 0;
  std::size_t cache_hits_ = 0;
  std::size_t cache_misses_ = 0;
};

}  // namespace dedisys
