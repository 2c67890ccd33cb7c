// Runtime class metadata (the ObjectClass/ObjectMethod model of Fig. 4.3).
//
// Business classes are described dynamically: attributes with defaults and
// methods with signatures, kinds and registered bodies.  The middleware
// uses this metadata to (a) detect write requests by method kind / naming
// convention, (b) look up affected constraints in the repository, and
// (c) execute invocations against local replicas.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "objects/value.h"
#include "util/errors.h"
#include "util/strings.h"

namespace dedisys {

class Entity;
struct MethodContext;

/// Classification mirroring the EJB conventions of Section 4.3: all
/// methods starting with `set` + upper-case letter count as writes; other
/// unknown methods are conservatively treated as writes ("to be on the
/// safe side", Section 5.1).
enum class MethodKind {
  Getter,   ///< Reads one attribute; executable on any replica.
  Setter,   ///< Writes one attribute; triggers update propagation.
  Query,    ///< Read-only domain logic.
  Mutator,  ///< State-changing domain logic.
  Empty,    ///< No-op used by the evaluation workloads.
};

struct MethodSignature {
  std::string name;
  std::vector<std::string> param_types;

  /// Unique key "name(type,type,...)" used for repository lookups.
  [[nodiscard]] std::string key() const {
    return name + "(" + join(param_types, ",") + ")";
  }

  friend bool operator==(const MethodSignature& a, const MethodSignature& b) {
    return a.name == b.name && a.param_types == b.param_types;
  }
};

/// Body invoked with the target entity, the execution context (nested
/// object access, transaction) and the boxed arguments.
using MethodBody =
    std::function<Value(Entity&, MethodContext&, const std::vector<Value>&)>;

struct MethodDescriptor {
  MethodSignature signature;
  MethodKind kind = MethodKind::Mutator;
  MethodBody body;

  [[nodiscard]] bool is_write() const {
    return kind == MethodKind::Setter || kind == MethodKind::Mutator ||
           kind == MethodKind::Empty;  // Empty treated as write, Section 5.1
  }

  /// True when the method changes entity state (drives CMP persistence and
  /// update propagation).
  [[nodiscard]] bool mutates() const {
    return kind == MethodKind::Setter || kind == MethodKind::Mutator;
  }
};

class ClassDescriptor {
 public:
  explicit ClassDescriptor(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  // -- inheritance (behavioral subtyping, Section 2.3.1) --------------------

  /// Declares the superclass; its constraints also apply to this class
  /// (preconditions OR'd, postconditions/invariants AND'd [DL96]).
  void set_super(const std::string& super) {
    super_ = super;
    bump_generation();
  }
  [[nodiscard]] const std::string& super() const { return super_; }

  void add_interface(const std::string& iface) {
    interfaces_.push_back(iface);
    bump_generation();
  }
  [[nodiscard]] const std::vector<std::string>& interfaces() const {
    return interfaces_;
  }

  // -- attributes -----------------------------------------------------------

  void define_attribute(const std::string& attr, Value default_value) {
    defaults_[attr] = std::move(default_value);
  }

  [[nodiscard]] const AttributeMap& default_attributes() const {
    return defaults_;
  }

  // -- methods --------------------------------------------------------------

  MethodDescriptor& define_method(MethodSignature sig, MethodKind kind,
                                  MethodBody body) {
    const std::string key = sig.key();
    auto [it, inserted] = methods_.emplace(
        key, MethodDescriptor{std::move(sig), kind, std::move(body)});
    if (!inserted) {
      throw ConfigError("duplicate method " + key + " on class " + name_);
    }
    return it->second;
  }

  /// Declares attribute `attr` together with conventional
  /// `get<Attr>()` / `set<Attr>(value)` accessor methods.
  void define_property(const std::string& attr, Value default_value,
                       const std::string& value_type);

  [[nodiscard]] const MethodDescriptor* find_method(
      const MethodSignature& sig) const {
    auto it = methods_.find(sig.key());
    return it == methods_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] const MethodDescriptor& method(
      const MethodSignature& sig) const {
    const MethodDescriptor* m = find_method(sig);
    if (m == nullptr) {
      throw ConfigError("no method " + sig.key() + " on class " + name_);
    }
    return *m;
  }

  [[nodiscard]] const std::map<std::string, MethodDescriptor>& methods()
      const {
    return methods_;
  }

 private:
  friend class ClassRegistry;

  void bump_generation() {
    if (generation_) ++*generation_;
  }

  std::string name_;
  std::string super_;
  std::vector<std::string> interfaces_;
  AttributeMap defaults_;
  std::map<std::string, MethodDescriptor> methods_;
  /// The owning registry's generation counter (null when standalone).
  std::shared_ptr<std::uint64_t> generation_;
};

/// Registry of class descriptors deployed on a cluster.
class ClassRegistry {
 public:
  ClassDescriptor& define(const std::string& name) {
    auto [it, inserted] = classes_.emplace(name, ClassDescriptor(name));
    if (!inserted) throw ConfigError("duplicate class " + name);
    it->second.generation_ = generation_;
    ++*generation_;
    return it->second;
  }

  /// Moves whenever an ancestry() result may have changed: on define(),
  /// ClassDescriptor::set_super() and add_interface().  Results derived
  /// from the class graph stay valid while it holds still.  (A copied
  /// registry shares the counter; that can only cause spurious moves.)
  [[nodiscard]] std::uint64_t generation() const { return *generation_; }

  [[nodiscard]] const ClassDescriptor& get(const std::string& name) const {
    auto it = classes_.find(name);
    if (it == classes_.end()) throw ConfigError("unknown class " + name);
    return it->second;
  }

  [[nodiscard]] bool contains(const std::string& name) const {
    return classes_.count(name) != 0;
  }

  /// The class plus all ancestors (superclass chain and interfaces, in
  /// declaration order, deduplicated).  Names of undeclared ancestors are
  /// still returned — interfaces need no descriptor of their own.
  [[nodiscard]] std::vector<std::string> ancestry(
      const std::string& name) const {
    std::vector<std::string> out;
    std::vector<std::string> queue{name};
    while (!queue.empty()) {
      const std::string current = queue.front();
      queue.erase(queue.begin());
      if (std::find(out.begin(), out.end(), current) != out.end()) continue;
      out.push_back(current);
      auto it = classes_.find(current);
      if (it == classes_.end()) continue;
      if (!it->second.super().empty()) queue.push_back(it->second.super());
      for (const std::string& iface : it->second.interfaces()) {
        queue.push_back(iface);
      }
    }
    return out;
  }

 private:
  std::map<std::string, ClassDescriptor> classes_;
  std::shared_ptr<std::uint64_t> generation_ =
      std::make_shared<std::uint64_t>(0);
};

}  // namespace dedisys
