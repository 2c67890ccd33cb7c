// OCL-like expression interpreter (shared core).
//
// Constraints are specified in OCL at design time (Fig. 1.6); this small
// interpreter makes such expressions executable at runtime — both for the
// Chapter-2 "Dresden OCL" study approach and for runtime OclConstraint
// instances loaded from XML descriptors.
//
// Grammar:
//   expr := or ;  or := and ("or" and)* ;  and := unary ("and" unary)*
//   unary := "not" unary | cmp
//   cmp  := add (("<="|">="|"<"|">"|"="|"<>") add)?
//   add  := mul (("+"|"-") mul)* ;  mul := prim (("*"|"/") prim)*
//   prim := NUMBER | "self" "." IDENT | "arg" DIGIT | "(" expr ")"
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "util/errors.h"

namespace dedisys {

/// Boxed value produced/consumed by OCL evaluation.
using OclValue = std::variant<std::monostate, double, std::int64_t, std::string>;

inline double ocl_num(const OclValue& v) {
  if (std::holds_alternative<double>(v)) return std::get<double>(v);
  if (std::holds_alternative<std::int64_t>(v)) {
    return static_cast<double>(std::get<std::int64_t>(v));
  }
  throw DedisysError("OCL value is not numeric");
}

/// Evaluation environment: resolves `self.<attr>` and `arg<N>`.
class OclEnv {
 public:
  virtual ~OclEnv() = default;
  [[nodiscard]] virtual OclValue attribute(const std::string& name) const = 0;
  [[nodiscard]] virtual OclValue argument(std::size_t index) const = 0;
};

class OclNode;
using OclExpr = std::shared_ptr<const OclNode>;

/// Binary operators of the expression grammar, public so structural
/// analyses can reason about parsed constraints.
enum class OclBinOp {
  Add, Sub, Mul, Div, Lt, Le, Gt, Ge, Eq, Ne, And, Or, Implies,
};

[[nodiscard]] const char* to_string(OclBinOp op);

/// Applies one binary operator to already-evaluated operands — the single
/// semantics shared by runtime evaluation and static constant folding.
/// Division by zero follows IEEE double semantics (inf/nan).
[[nodiscard]] OclValue ocl_apply(OclBinOp op, const OclValue& lhs,
                                 const OclValue& rhs);

/// Structural visitor over a parsed expression tree.  Traversal is
/// depth-first; composite nodes bracket their operands with enter/leave
/// callbacks so post-order (stack machine) analyses and pre-order scans
/// can both be written against the same interface.
class OclVisitor {
 public:
  virtual ~OclVisitor() = default;
  virtual void on_number(double) {}
  virtual void on_string(const std::string&) {}
  virtual void on_attribute(const std::string& /*name*/) {}
  virtual void on_argument(std::size_t /*index*/) {}
  virtual void enter_binary(OclBinOp) {}
  virtual void leave_binary(OclBinOp) {}
  virtual void enter_not() {}
  virtual void leave_not() {}
};

class OclNode {
 public:
  virtual ~OclNode() = default;
  [[nodiscard]] virtual OclValue eval(const OclEnv& env) const = 0;
  /// Structural introspection (read-set extraction, constant folding,
  /// diagnostics) without evaluating against an environment.
  virtual void accept(OclVisitor& visitor) const = 0;
};

/// Deepest nesting that parse_ocl accepts.  Parentheses, `not` and each
/// binary operator of a left-deep chain (`a + b + c`, `p and q and r`)
/// share this one budget, so every parsed tree stays shallow enough to
/// evaluate, analyse and release by recursion.
inline constexpr std::size_t kMaxOclDepth = 256;

/// Parses one OCL boolean expression; throws ConfigError on bad syntax and
/// on nesting deeper than kMaxOclDepth.
[[nodiscard]] OclExpr parse_ocl(const std::string& text);

/// Evaluates a parsed constraint to a boolean (numeric results: != 0).
[[nodiscard]] bool ocl_check(const OclExpr& expr, const OclEnv& env);

}  // namespace dedisys
