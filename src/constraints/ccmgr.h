// Constraint consistency manager (CCMgr, Section 4.2.3).
//
// The CCMgr is the new middleware service introduced by the paper.  It is
// notified before and after method invocations by the invocation-service
// interceptor, looks up affected constraints in the repository and triggers
// validation according to constraint type:
//
//   preconditions      -> before the invocation,
//   postconditions     -> after the invocation (with a @pre snapshot hook),
//   hard invariants    -> after each affected operation,
//   soft invariants    -> at transaction prepare (the CCMgr enlists as a
//                         transactional resource),
//   async invariants   -> soft in healthy mode; in degraded mode recorded
//                         as threats without validation (Section 5.5.3).
//
// Each hook resolves its constraints through one call plan per (repository,
// method descriptor): the matches of every constraint type flattened over
// the class ancestry, built once from the repository and the class
// registry and rebuilt only when either one's generation moves.
//
// In degraded mode the CCMgr gathers the objects each validation accessed,
// asks the replication service whether any were possibly stale, derives the
// satisfaction degree, negotiates arising consistency threats (dynamic
// handler > per-constraint static rule > application-wide default) and
// persists accepted threats.  During reconciliation it re-evaluates stored
// threats and drives the application's constraint reconciliation handler.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "constraints/negotiation.h"
#include "constraints/repository.h"
#include "constraints/threats.h"
#include "objects/invocation.h"
#include "objects/method_context.h"
#include "obs/observability.h"
#include "runtime/runtime.h"
#include "tx/tx_manager.h"
#include "util/ids.h"
#include "util/sim_clock.h"

namespace dedisys {

/// Value-typed wiring of the CCMgr's collaborators, passed at construction
/// (or through one wire() call) instead of six order-sensitive set_*
/// calls.  Every field has a safe default: a default-constructed wiring
/// yields the same standalone CCMgr as the plain constructor.
struct CcmgrWiring {
  /// Staleness/reachability oracle; null means "always fresh"
  /// (single-node / healthy deployments).
  const StalenessOracle* oracle = nullptr;
  /// Accessor used for prepare-time and reconciliation-time validations.
  ObjectAccessor* objects = nullptr;
  /// Hook replicating an accepted threat to partition members.
  std::function<void(const ConsistencyThreat&)> threat_replicator;
  /// Application-wide fallback minimum satisfaction degree.
  SatisfactionDegree default_min = SatisfactionDegree::Satisfied;
  /// Class hierarchy (behavioral subtyping, Section 2.3.1): constraints of
  /// superclasses/interfaces also apply, preconditions OR'd across levels,
  /// postconditions/invariants AND'd [DL96].  Null: only the target
  /// class's own constraints apply.
  const ClassRegistry* classes = nullptr;
  /// Observability hub; validations and the threat lifecycle are then
  /// recorded as trace events.
  obs::Observability* obs = nullptr;
  /// Query used by constraints without a context object ("validation
  /// starts from a set of objects obtained by a query", Section 3.2.2).
  ConstraintValidationContext::ObjectQuery object_query;
};

/// Application callback invoked for violated constraints detected during
/// the reconciliation phase (Section 4.4).  Returning true means the
/// inconsistency is resolved now (the CCMgr revalidates); returning false
/// defers the clean-up to the application (e-mail to an operator, ...).
class ConstraintReconciliationHandler {
 public:
  virtual ~ConstraintReconciliationHandler() = default;
  virtual bool reconcile(const ConsistencyThreat& threat,
                         ConstraintValidationContext& ctx) = 0;
  /// Optional notification: a threat's constraint is satisfied but a
  /// replica conflict was involved (Section 3.3).
  virtual void on_replica_conflict_resolved(const ConsistencyThreat&) {}
};

class ConstraintConsistencyManager final : public TransactionalResource {
 public:
  ConstraintConsistencyManager(ConstraintRepository& repository,
                               ThreatStore& threats, TransactionManager& tm,
                               Runtime& rt, NodeId self);

  /// Constructs and wires in one step (the preferred form).
  ConstraintConsistencyManager(ConstraintRepository& repository,
                               ThreatStore& threats, TransactionManager& tm,
                               Runtime& rt, NodeId self, CcmgrWiring wiring)
      : ConstraintConsistencyManager(repository, threats, tm, rt, self) {
    wire(std::move(wiring));
  }

  // -- wiring ----------------------------------------------------------------

  /// Applies a complete wiring in one call; replaces whatever was wired
  /// before (a null oracle reverts to the built-in always-fresh one).
  void wire(CcmgrWiring wiring) {
    oracle_ = wiring.oracle != nullptr ? wiring.oracle : &kFreshOracle;
    objects_ = wiring.objects;
    replicate_threat_ = std::move(wiring.threat_replicator);
    default_min_ = wiring.default_min;
    classes_ = wiring.classes;
    obs_ = wiring.obs;
    object_query_ = std::move(wiring.object_query);
    plans_.clear();  // built against the previous class registry
  }

  /// When a threat is negotiated (Section 5.4): immediately when it
  /// arises, or deferred in a batch at transaction commit (useful for
  /// longer-lasting transactions).
  enum class NegotiationTiming { Immediate, Deferred };
  void set_negotiation_timing(NegotiationTiming t) { negotiation_timing_ = t; }

  /// Registers a per-application constraint repository (Section 5.3:
  /// "constraint names have to be unique within an application and not
  /// within the whole application server").  Invocations carrying
  /// context["application"] = name use this repository; everything else
  /// uses the default one.
  void register_application(const std::string& name,
                            ConstraintRepository* repository) {
    app_repositories_[name] = repository;
  }

  /// Driven by the middleware kernel on view changes.
  void set_degraded(bool degraded, double partition_weight);
  [[nodiscard]] bool degraded() const { return degraded_; }

  /// Read-set pruning (PR 3): invariants whose statically-computed
  /// read-set is disjoint from the invocation's write-set are skipped.
  /// Only constraints carrying a prunable AnalysisReport are affected;
  /// without analysis, validation is exhaustive as before.
  void set_pruning(bool on) { pruning_ = on; }
  [[nodiscard]] bool pruning() const { return pruning_; }

  /// Always zero: the CCMgr keeps no validation-result cache.  Only the
  /// perfbench counter that reads `hits` (perfbench/perfbench.cpp) keeps
  /// this alive; delete it together with that metric.
  struct MemoStats {
    std::size_t hits = 0;
  };
  [[nodiscard]] MemoStats memo_stats() const { return {}; }

  /// Objects treated as possibly stale regardless of the replication
  /// oracle — used by the TreatAsDegraded reconciliation policy
  /// (Section 3.3): until their threats are re-evaluated, validations on
  /// them must not be trusted as full checks.
  void set_forced_stale(std::unordered_set<ObjectId> objects) {
    forced_stale_ = std::move(objects);
  }
  void clear_forced_stale() { forced_stale_.clear(); }

  // -- negotiation handler binding (Section 4.2.3) -----------------------------

  void register_negotiation_handler(TxId tx,
                                    std::shared_ptr<NegotiationHandler> h);

  // -- invocation hooks (called by the CCM interceptor) -------------------------

  void before_invocation(const Invocation& inv, ObjectAccessor& objects);
  void after_invocation(const Invocation& inv, ObjectAccessor& objects);

  // -- TransactionalResource -----------------------------------------------------

  [[nodiscard]] std::string name() const override { return "CCMgr"; }
  Vote prepare(TxId tx) override;
  void commit(TxId tx) override;
  void rollback(TxId tx) override;

  // -- reconciliation (Section 4.4) -----------------------------------------------

  struct ReconcileStats {
    std::size_t reevaluated = 0;
    std::size_t removed_satisfied = 0;
    std::size_t violations = 0;
    std::size_t resolved_by_rollback = 0;
    std::size_t resolved_immediately = 0;
    std::size_t deferred = 0;
    std::size_t postponed = 0;
    std::size_t conflict_notifications = 0;
  };

  /// Attempts rollback-based resolution of a violated threat; provided by
  /// the replication reconciler when replica history is kept.
  using TryRollback = std::function<bool(const ConsistencyThreat&)>;
  /// Whether a replica write-write conflict was detected for an object
  /// during the preceding replica reconciliation.
  using ConflictQuery = std::function<bool(ObjectId)>;

  ReconcileStats reconcile(ConstraintReconciliationHandler* handler,
                           const ConflictQuery& had_conflict = {},
                           const TryRollback& try_rollback = {});

  /// Re-validates one constraint for every given context object — required
  /// when a disabled constraint is enabled again or a new constraint is
  /// introduced at runtime (Section 3.3).  Returns the violating objects.
  std::vector<ObjectId> revalidate_for_objects(
      const std::string& constraint_name,
      const std::vector<ObjectId>& context_objects);

  /// Objects currently covered by stored threats; business operations
  /// touching them during reconciliation are still subject to threats.
  [[nodiscard]] std::unordered_set<ObjectId> threatened_objects();

  // -- statistics --------------------------------------------------------------

  struct Stats {
    std::size_t validations = 0;
    std::size_t threats_detected = 0;
    std::size_t threats_accepted = 0;
    std::size_t threats_rejected = 0;
    std::size_t violations = 0;
    /// Invariant evaluations avoided by read-set pruning.
    std::size_t evaluations_skipped = 0;
    /// Invariant evaluations avoided because the abstract interpreter
    /// proved the constraint a tautology (PR 8).
    std::size_t evaluations_proven = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct PendingCheck {
    Constraint* constraint;
    ObjectId context_object;
    ObjectId called_object;
  };

  struct PendingThreat {
    Constraint* constraint;
    ConsistencyThreat threat;
  };

  struct TxState {
    std::shared_ptr<NegotiationHandler> negotiation;
    std::vector<PendingCheck> pending;          // soft/async invariants
    std::vector<PendingThreat> deferred;        // deferred negotiations
    std::vector<ConsistencyThreat> staged;      // accepted threats
    std::vector<std::string> staged_removals;   // satisfied identities
  };

  /// RAII guard preventing re-entrant constraint validation when a
  /// validate() body invokes further intercepted methods (Section 5.3).
  class ValidationGuard {
   public:
    explicit ValidationGuard(bool& flag) : flag_(flag) { flag_ = true; }
    ~ValidationGuard() { flag_ = false; }
    ValidationGuard(const ValidationGuard&) = delete;
    ValidationGuard& operator=(const ValidationGuard&) = delete;

   private:
    bool& flag_;
  };

  using Matches = std::vector<ConstraintRepository::Match>;

  /// One method's constraint metadata, resolved once.  Immutable: a hook
  /// holds its plan for its whole run, even if a nested call rebuilds it.
  struct CallPlan {
    std::uint64_t repository_generation = 0;
    std::uint64_t class_generation = 0;
    /// Per ConstraintType: matches for the invocation's class and all its
    /// ancestors, flattened (postconditions/invariants: conjunction).
    std::array<Matches,
               static_cast<std::size_t>(ConstraintType::AsyncInvariant) + 1>
        matches;
    /// Non-empty precondition groups per hierarchy level (disjunction
    /// across levels).
    std::vector<Matches> precondition_groups;
  };
  using PlanKey =
      std::pair<const ConstraintRepository*, const MethodDescriptor*>;
  struct PlanKeyHash {
    std::size_t operator()(const PlanKey& k) const {
      return std::hash<const void*>{}(k.first) * 31 +
             std::hash<const void*>{}(k.second);
    }
  };

  /// Repository for the application the invocation belongs to.
  ConstraintRepository& repository_for(const Invocation& inv);

  /// The invocation's call plan, from the cache while the repository's and
  /// the class registry's generations hold still.  Built afresh — every
  /// hook runs the repository's search — when caching is off (the paper's
  /// naive mode) or the invocation carries no descriptor.
  std::shared_ptr<const CallPlan> plan_for(ConstraintRepository& repository,
                                           const Invocation& inv);
  std::shared_ptr<const CallPlan> build_plan(ConstraintRepository& repository,
                                             const Invocation& inv) const;
  [[nodiscard]] std::uint64_t class_generation() const {
    return classes_ != nullptr ? classes_->generation() : 0;
  }

  /// The plan's matches of `type`, charging the simulated cost of the
  /// repository query it stands for.
  const Matches& planned(const CallPlan& plan, ConstraintType type);

  /// OR semantics across levels: the call proceeds when any level's
  /// conjunction holds.
  void check_preconditions(const CallPlan& plan, const Invocation& inv,
                           ObjectAccessor& objects);

  /// Finds a constraint registration across all applications.
  const ConstraintRegistration* find_registration(const std::string& name);

  /// Whether an invariant validation may be skipped because the
  /// invocation provably cannot change anything the constraint reads
  /// (see docs/static_analysis.md for the soundness argument).
  bool should_skip(const ConstraintRepository::Match& match,
                   const Invocation& inv, ObjectId context_object);

  ObjectId prepare_context_object(const Invocation& inv,
                                  const ContextPreparation& prep,
                                  ObjectAccessor& objects) const;

  ConstraintValidationContext make_context(const Invocation& inv,
                                           ObjectId context_object,
                                           ObjectAccessor& objects) const;

  /// Runs validate() and derives the satisfaction degree from the
  /// staleness of the accessed objects (Fig. 4.4).
  SatisfactionDegree evaluate(Constraint& constraint,
                              ConstraintValidationContext& ctx);

  /// Full handling of one constraint check within a business operation.
  void check(Constraint& constraint, const Invocation& inv,
             ObjectId context_object, ObjectAccessor& objects);

  void handle_outcome(Constraint& constraint, SatisfactionDegree degree,
                      ConstraintValidationContext& ctx, TxId tx);

  void handle_threat(Constraint& constraint, SatisfactionDegree degree,
                     ConstraintValidationContext& ctx, TxId tx);

  /// Runs (dynamic-or-static) negotiation; on acceptance stages/persists
  /// the threat, otherwise marks the tx rollback-only and throws.
  void negotiate_threat(Constraint& constraint, ConsistencyThreat threat,
                        ConstraintValidationContext& ctx, TxId tx);

  void record_pending(TxId tx, Constraint& constraint, ObjectId context_object,
                      ObjectId called_object);

  void store_async_threat(TxId tx, Constraint& constraint,
                          ObjectId context_object);

  TxState& tx_state(TxId tx) { return tx_state_[tx]; }

  ConstraintRepository& repository_;
  ThreatStore& threats_;
  TransactionManager& tm_;
  Runtime& rt_;
  NodeId self_;

  const StalenessOracle* oracle_;
  obs::Observability* obs_ = nullptr;
  ObjectAccessor* objects_ = nullptr;
  std::function<void(const ConsistencyThreat&)> replicate_threat_;
  SatisfactionDegree default_min_ = SatisfactionDegree::Satisfied;
  ConstraintValidationContext::ObjectQuery object_query_;
  const ClassRegistry* classes_ = nullptr;
  NegotiationTiming negotiation_timing_ = NegotiationTiming::Immediate;

  bool degraded_ = false;
  double partition_weight_ = 1.0;
  bool pruning_ = true;
  bool in_validation_ = false;
  std::unordered_set<ObjectId> forced_stale_;

  std::unordered_map<TxId, TxState> tx_state_;
  std::map<std::string, ConstraintRepository*> app_repositories_;
  std::unordered_map<PlanKey, std::shared_ptr<const CallPlan>, PlanKeyHash>
      plans_;
  Stats stats_;

  static const AlwaysFreshOracle kFreshOracle;
};

}  // namespace dedisys
