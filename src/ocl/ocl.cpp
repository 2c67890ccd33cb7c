#include "ocl/ocl.h"

#include <cctype>

#include "util/errors.h"

namespace dedisys {

const char* to_string(OclBinOp op) {
  switch (op) {
    case OclBinOp::Add: return "+";
    case OclBinOp::Sub: return "-";
    case OclBinOp::Mul: return "*";
    case OclBinOp::Div: return "/";
    case OclBinOp::Lt: return "<";
    case OclBinOp::Le: return "<=";
    case OclBinOp::Gt: return ">";
    case OclBinOp::Ge: return ">=";
    case OclBinOp::Eq: return "=";
    case OclBinOp::Ne: return "<>";
    case OclBinOp::And: return "and";
    case OclBinOp::Or: return "or";
    case OclBinOp::Implies: return "implies";
  }
  return "?";
}

OclValue ocl_apply(OclBinOp op, const OclValue& lhs, const OclValue& rhs) {
  // String equality/inequality (e.g. self.alarmKind = "Signal").
  if ((op == OclBinOp::Eq || op == OclBinOp::Ne) &&
      std::holds_alternative<std::string>(lhs) &&
      std::holds_alternative<std::string>(rhs)) {
    const bool eq = std::get<std::string>(lhs) == std::get<std::string>(rhs);
    return OclValue{static_cast<double>(op == OclBinOp::Eq ? eq : !eq)};
  }
  const double a = ocl_num(lhs);
  const double b = ocl_num(rhs);
  switch (op) {
    case OclBinOp::Add: return OclValue{a + b};
    case OclBinOp::Sub: return OclValue{a - b};
    case OclBinOp::Mul: return OclValue{a * b};
    case OclBinOp::Div: return OclValue{a / b};
    case OclBinOp::Lt: return OclValue{static_cast<double>(a < b)};
    case OclBinOp::Le: return OclValue{static_cast<double>(a <= b)};
    case OclBinOp::Gt: return OclValue{static_cast<double>(a > b)};
    case OclBinOp::Ge: return OclValue{static_cast<double>(a >= b)};
    case OclBinOp::Eq: return OclValue{static_cast<double>(a == b)};
    case OclBinOp::Ne: return OclValue{static_cast<double>(a != b)};
    case OclBinOp::And: return OclValue{static_cast<double>(a != 0 && b != 0)};
    case OclBinOp::Or: return OclValue{static_cast<double>(a != 0 || b != 0)};
    case OclBinOp::Implies:
      return OclValue{static_cast<double>(a == 0 || b != 0)};
  }
  throw DedisysError("bad OCL operator");
}

namespace {

class NumberNode final : public OclNode {
 public:
  explicit NumberNode(double v) : value_(v) {}
  OclValue eval(const OclEnv&) const override { return OclValue{value_}; }
  void accept(OclVisitor& visitor) const override {
    visitor.on_number(value_);
  }

 private:
  double value_;
};

class StringNode final : public OclNode {
 public:
  explicit StringNode(std::string v) : value_(std::move(v)) {}
  OclValue eval(const OclEnv&) const override { return OclValue{value_}; }
  void accept(OclVisitor& visitor) const override {
    visitor.on_string(value_);
  }

 private:
  std::string value_;
};

class AttrNode final : public OclNode {
 public:
  explicit AttrNode(std::string name) : name_(std::move(name)) {}
  OclValue eval(const OclEnv& env) const override {
    return env.attribute(name_);  // reflective string-keyed access
  }
  void accept(OclVisitor& visitor) const override {
    visitor.on_attribute(name_);
  }

 private:
  std::string name_;
};

class ArgNode final : public OclNode {
 public:
  explicit ArgNode(std::size_t index) : index_(index) {}
  OclValue eval(const OclEnv& env) const override {
    return env.argument(index_);
  }
  void accept(OclVisitor& visitor) const override {
    visitor.on_argument(index_);
  }

 private:
  std::size_t index_;
};

class BinaryNode final : public OclNode {
 public:
  BinaryNode(OclBinOp op, OclExpr lhs, OclExpr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  OclValue eval(const OclEnv& env) const override {
    return ocl_apply(op_, lhs_->eval(env), rhs_->eval(env));
  }

  void accept(OclVisitor& visitor) const override {
    visitor.enter_binary(op_);
    lhs_->accept(visitor);
    rhs_->accept(visitor);
    visitor.leave_binary(op_);
  }

 private:
  OclBinOp op_;
  OclExpr lhs_;
  OclExpr rhs_;
};

class NotNode final : public OclNode {
 public:
  explicit NotNode(OclExpr inner) : inner_(std::move(inner)) {}
  OclValue eval(const OclEnv& env) const override {
    return OclValue{static_cast<double>(ocl_num(inner_->eval(env)) == 0)};
  }
  void accept(OclVisitor& visitor) const override {
    visitor.enter_not();
    inner_->accept(visitor);
    visitor.leave_not();
  }

 private:
  OclExpr inner_;
};

class Parser {
 public:
  explicit Parser(const std::string& text) : in_(text) {}

  OclExpr parse_document() {
    OclExpr e = parse_implies();
    skip_ws();
    if (pos_ != in_.size()) throw ConfigError("trailing OCL input: " + in_);
    return e;
  }

 private:
  void skip_ws() {
    while (pos_ < in_.size() &&
           std::isspace(static_cast<unsigned char>(in_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool eat_word(const char* w) {
    skip_ws();
    const std::size_t len = std::string(w).size();
    if (in_.compare(pos_, len, w) != 0) return false;
    const std::size_t end = pos_ + len;
    if (end < in_.size() &&
        (std::isalnum(static_cast<unsigned char>(in_[end])) != 0 ||
         in_[end] == '_')) {
      return false;  // identifier continues
    }
    pos_ = end;
    return true;
  }

  /// Enters one nesting level: a parenthesis, a `not`, or one more binary
  /// operator of a left-deep chain (`a + b + …` nests like parentheses).
  void descend() {
    if (depth_ == kMaxOclDepth) {
      throw ConfigError("OCL nesting deeper than the limit of " +
                        std::to_string(kMaxOclDepth) + " levels");
    }
    ++depth_;
  }

  bool eat(const char* token) {
    skip_ws();
    const std::size_t len = std::string(token).size();
    if (in_.compare(pos_, len, token) != 0) return false;
    pos_ += len;
    return true;
  }

  OclExpr parse_implies() {
    const std::size_t base = depth_;
    OclExpr lhs = parse_or();
    while (eat_word("implies")) {
      descend();
      lhs = std::make_shared<BinaryNode>(OclBinOp::Implies, lhs, parse_or());
    }
    depth_ = base;
    return lhs;
  }

  OclExpr parse_or() {
    const std::size_t base = depth_;
    OclExpr lhs = parse_and();
    while (eat_word("or")) {
      descend();
      lhs = std::make_shared<BinaryNode>(OclBinOp::Or, lhs, parse_and());
    }
    depth_ = base;
    return lhs;
  }

  OclExpr parse_and() {
    const std::size_t base = depth_;
    OclExpr lhs = parse_unary();
    while (eat_word("and")) {
      descend();
      lhs = std::make_shared<BinaryNode>(OclBinOp::And, lhs, parse_unary());
    }
    depth_ = base;
    return lhs;
  }

  OclExpr parse_unary() {
    if (eat_word("not")) {
      descend();
      OclExpr inner = parse_unary();
      --depth_;
      return std::make_shared<NotNode>(std::move(inner));
    }
    return parse_cmp();
  }

  OclExpr parse_cmp() {
    OclExpr lhs = parse_add();
    skip_ws();
    static constexpr std::pair<const char*, OclBinOp> kOps[] = {
        {"<=", OclBinOp::Le}, {">=", OclBinOp::Ge}, {"<>", OclBinOp::Ne},
        {"<", OclBinOp::Lt},  {">", OclBinOp::Gt},  {"=", OclBinOp::Eq},
    };
    for (const auto& [tok, op] : kOps) {
      if (eat(tok)) {
        return std::make_shared<BinaryNode>(op, lhs, parse_add());
      }
    }
    return lhs;
  }

  OclExpr parse_add() {
    const std::size_t base = depth_;
    OclExpr lhs = parse_mul();
    while (true) {
      if (eat("+")) {
        descend();
        lhs = std::make_shared<BinaryNode>(OclBinOp::Add, lhs, parse_mul());
      } else if (eat("-")) {
        descend();
        lhs = std::make_shared<BinaryNode>(OclBinOp::Sub, lhs, parse_mul());
      } else {
        depth_ = base;
        return lhs;
      }
    }
  }

  OclExpr parse_mul() {
    const std::size_t base = depth_;
    OclExpr lhs = parse_prim();
    while (true) {
      if (eat("*")) {
        descend();
        lhs = std::make_shared<BinaryNode>(OclBinOp::Mul, lhs, parse_prim());
      } else if (eat("/")) {
        descend();
        lhs = std::make_shared<BinaryNode>(OclBinOp::Div, lhs, parse_prim());
      } else {
        depth_ = base;
        return lhs;
      }
    }
  }

  OclExpr parse_prim() {
    skip_ws();
    if (eat_word("true")) return std::make_shared<NumberNode>(1);
    if (eat_word("false")) return std::make_shared<NumberNode>(0);
    if (pos_ < in_.size() && (in_[pos_] == '"' || in_[pos_] == '\'')) {
      return parse_string_literal();
    }
    if (eat("(")) {
      descend();
      OclExpr e = parse_implies();
      if (!eat(")")) throw ConfigError("expected ')' in OCL: " + in_);
      --depth_;
      return e;
    }
    if (eat_word("self")) {
      if (!eat(".")) throw ConfigError("expected '.' after self in: " + in_);
      return std::make_shared<AttrNode>(parse_ident());
    }
    if (in_.compare(pos_, 3, "arg") == 0 && pos_ + 3 < in_.size() &&
        std::isdigit(static_cast<unsigned char>(in_[pos_ + 3])) != 0) {
      pos_ += 3;
      const std::size_t idx = static_cast<std::size_t>(in_[pos_] - '0');
      ++pos_;
      return std::make_shared<ArgNode>(idx);
    }
    return parse_number();
  }

  std::string parse_ident() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < in_.size() &&
           (std::isalnum(static_cast<unsigned char>(in_[pos_])) != 0 ||
            in_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) throw ConfigError("expected identifier in: " + in_);
    return in_.substr(start, pos_ - start);
  }

  OclExpr parse_string_literal() {
    const char quote = in_[pos_++];
    const std::size_t start = pos_;
    while (pos_ < in_.size() && in_[pos_] != quote) ++pos_;
    if (pos_ >= in_.size()) {
      throw ConfigError("unterminated string literal in OCL: " + in_);
    }
    std::string value = in_.substr(start, pos_ - start);
    ++pos_;
    return std::make_shared<StringNode>(std::move(value));
  }

  OclExpr parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < in_.size() &&
           (std::isdigit(static_cast<unsigned char>(in_[pos_])) != 0 ||
            in_[pos_] == '.')) {
      ++pos_;
    }
    if (pos_ == start) {
      throw ConfigError("expected number at '" + in_.substr(pos_) + "'");
    }
    return std::make_shared<NumberNode>(std::stod(in_.substr(start, pos_ - start)));
  }

  std::string in_;
  std::size_t pos_ = 0;
  /// Enclosing parentheses, `not`s and chained binary operators.
  std::size_t depth_ = 0;
};

}  // namespace

OclExpr parse_ocl(const std::string& text) {
  return Parser(text).parse_document();
}

bool ocl_check(const OclExpr& expr, const OclEnv& env) {
  return ocl_num(expr->eval(env)) != 0;
}

}  // namespace dedisys
