#include "constraints/config.h"

#include "constraints/ocl_constraint.h"

#include <cctype>

#include "util/strings.h"

namespace dedisys {

// ---------------------------------------------------------------------------
// XML subset parser
// ---------------------------------------------------------------------------

namespace {

class XmlParser {
 public:
  explicit XmlParser(std::string_view input) : in_(input) {}

  XmlNode parse_document() {
    skip_misc();
    XmlNode root = parse_element(1);
    skip_misc();
    if (pos_ != in_.size()) {
      throw ConfigError("trailing content after root element");
    }
    return root;
  }

 private:
  void skip_ws() {
    while (pos_ < in_.size() &&
           std::isspace(static_cast<unsigned char>(in_[pos_])) != 0) {
      ++pos_;
    }
  }

  /// Skips whitespace, comments and XML declarations between elements.
  void skip_misc() {
    while (true) {
      skip_ws();
      if (peek_is("<!--")) {
        const std::size_t end = in_.find("-->", pos_);
        if (end == std::string_view::npos) {
          throw ConfigError("unterminated XML comment");
        }
        pos_ = end + 3;
      } else if (peek_is("<?")) {
        const std::size_t end = in_.find("?>", pos_);
        if (end == std::string_view::npos) {
          throw ConfigError("unterminated XML declaration");
        }
        pos_ = end + 2;
      } else {
        return;
      }
    }
  }

  [[nodiscard]] bool peek_is(std::string_view token) const {
    return in_.substr(pos_, token.size()) == token;
  }

  void expect(char c) {
    if (pos_ >= in_.size() || in_[pos_] != c) {
      throw ConfigError(std::string("expected '") + c + "' at offset " +
                        std::to_string(pos_));
    }
    ++pos_;
  }

  std::string parse_name() {
    const std::size_t start = pos_;
    while (pos_ < in_.size()) {
      const char c = in_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
          c == '_' || c == ':' || c == '.') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      throw ConfigError("expected name at offset " + std::to_string(start));
    }
    return std::string(in_.substr(start, pos_ - start));
  }

  std::string parse_quoted() {
    const char quote = in_[pos_];
    if (quote != '"' && quote != '\'') {
      throw ConfigError("expected quoted value at offset " +
                        std::to_string(pos_));
    }
    ++pos_;
    const std::size_t start = pos_;
    while (pos_ < in_.size() && in_[pos_] != quote) ++pos_;
    if (pos_ >= in_.size()) throw ConfigError("unterminated attribute value");
    std::string value(in_.substr(start, pos_ - start));
    ++pos_;
    return decode_entities(value);
  }

  static std::string decode_entities(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] != '&') {
        out += s[i];
        continue;
      }
      if (s.compare(i, 4, "&lt;") == 0) {
        out += '<';
        i += 3;
      } else if (s.compare(i, 4, "&gt;") == 0) {
        out += '>';
        i += 3;
      } else if (s.compare(i, 5, "&amp;") == 0) {
        out += '&';
        i += 4;
      } else if (s.compare(i, 6, "&quot;") == 0) {
        out += '"';
        i += 5;
      } else if (s.compare(i, 6, "&apos;") == 0) {
        out += '\'';
        i += 5;
      } else {
        out += s[i];
      }
    }
    return out;
  }

  /// `depth` is the element's nesting level, the root's being 1.
  XmlNode parse_element(std::size_t depth) {
    if (depth > kMaxXmlDepth) {
      throw ConfigError("XML nesting deeper than the limit of " +
                        std::to_string(kMaxXmlDepth) + " levels");
    }
    expect('<');
    XmlNode node;
    node.tag = parse_name();
    // Attributes.
    while (true) {
      skip_ws();
      if (pos_ >= in_.size()) throw ConfigError("unterminated element");
      if (in_[pos_] == '/') {
        ++pos_;
        expect('>');
        return node;  // self-closing
      }
      if (in_[pos_] == '>') {
        ++pos_;
        break;
      }
      std::string attr_name = parse_name();
      skip_ws();
      expect('=');
      skip_ws();
      node.attrs[attr_name] = parse_quoted();
    }
    // Content.
    while (true) {
      skip_misc_in_content(node);
      if (peek_is("</")) {
        pos_ += 2;
        const std::string closing = parse_name();
        if (closing != node.tag) {
          throw ConfigError("mismatched closing tag </" + closing +
                            "> for <" + node.tag + ">");
        }
        skip_ws();
        expect('>');
        node.text = decode_entities(std::string(trim(node.text)));
        return node;
      }
      if (pos_ < in_.size() && in_[pos_] == '<') {
        node.children.push_back(parse_element(depth + 1));
      } else if (pos_ >= in_.size()) {
        throw ConfigError("unterminated element <" + node.tag + ">");
      }
    }
  }

  /// Accumulates text until the next markup, skipping comments.
  void skip_misc_in_content(XmlNode& node) {
    while (pos_ < in_.size()) {
      if (peek_is("<!--")) {
        const std::size_t end = in_.find("-->", pos_);
        if (end == std::string_view::npos) {
          throw ConfigError("unterminated XML comment");
        }
        pos_ = end + 3;
      } else if (in_[pos_] == '<') {
        return;
      } else {
        node.text += in_[pos_++];
      }
    }
  }

  std::string_view in_;
  std::size_t pos_ = 0;
};

ConstraintType parse_type(const std::string& s) {
  if (s == "HARD") return ConstraintType::HardInvariant;
  if (s == "SOFT") return ConstraintType::SoftInvariant;
  if (s == "ASYNC") return ConstraintType::AsyncInvariant;
  if (s == "PRE") return ConstraintType::Precondition;
  if (s == "POST") return ConstraintType::Postcondition;
  throw ConfigError("unknown constraint type: " + s);
}

ConstraintPriority parse_priority(const std::string& s) {
  if (s == "RELAXABLE") return ConstraintPriority::Tradeable;
  if (s == "CRITICAL") return ConstraintPriority::NonTradeable;
  throw ConfigError("unknown constraint priority: " + s);
}

ContextPreparation parse_preparation(const XmlNode& method_node) {
  ContextPreparation prep;
  const XmlNode* prep_node = method_node.child("context-preparation");
  if (prep_node == nullptr) return prep;  // default: called object
  const std::string& cls =
      prep_node->require_child("preparation-class").text;
  if (cls == "CalledObjectIsContextObject") {
    prep.kind = ContextPreparationKind::CalledObject;
  } else if (cls == "ReferenceIsContextObject") {
    prep.kind = ContextPreparationKind::ReferenceGetter;
    const XmlNode* params = prep_node->child("params");
    if (params != nullptr) {
      for (const XmlNode* p : params->children_named("param")) {
        if (p->attr("name") == "getter") prep.getter = p->attr("value");
      }
    }
    if (prep.getter.empty()) {
      throw ConfigError("ReferenceIsContextObject requires a getter param");
    }
  } else if (cls == "NoContextObject") {
    prep.kind = ContextPreparationKind::None;
  } else {
    throw ConfigError("unknown preparation class: " + cls);
  }
  return prep;
}

AffectedMethod parse_affected_method(const XmlNode& node) {
  AffectedMethod am;
  am.preparation = parse_preparation(node);
  const XmlNode& method = node.require_child("objectMethod");
  am.method.name = method.require_attr("name");
  am.class_name = method.require_child("objectClass").text;
  const XmlNode* arguments = method.child("arguments");
  if (arguments != nullptr) {
    for (const XmlNode* arg : arguments->children_named("argument")) {
      am.method.param_types.push_back(arg->text);
    }
  }
  return am;
}

}  // namespace

XmlNode parse_xml(std::string_view input) {
  return XmlParser(input).parse_document();
}

std::size_t load_constraints(std::string_view xml_text,
                             const ConstraintFactory& factory,
                             ConstraintRepository& repository) {
  const XmlNode root = parse_xml(xml_text);
  if (root.tag != "constraints") {
    throw ConfigError("descriptor root must be <constraints>, found <" +
                      root.tag + ">");
  }

  std::size_t loaded = 0;
  for (const XmlNode* node : root.children_named("constraint")) {
    const std::string name = node->require_attr("name");
    const ConstraintType type = parse_type(node->require_attr("type"));
    const ConstraintPriority prio =
        parse_priority(node->attr("priority", "CRITICAL"));

    ConstraintPtr constraint;
    const XmlNode* ocl = node->child("ocl");
    if (ocl != nullptr) {
      // Design-phase OCL expression made executable at runtime.
      constraint = std::make_shared<OclConstraint>(name, type, prio, ocl->text);
    } else {
      const std::string impl = node->require_child("class").text;
      constraint = factory.create(impl, name, type, prio);
    }
    constraint->set_context_object_needed(node->attr("contextObject", "Y") ==
                                          "Y");
    constraint->set_intra_object(node->attr("intraObject", "N") == "Y");
    const std::string min_degree = node->attr("minSatisfactionDegree");
    if (!min_degree.empty()) {
      constraint->set_min_satisfaction_degree(degree_from_string(min_degree));
    }
    const XmlNode* desc = node->child("description");
    if (desc != nullptr) constraint->set_description(desc->text);
    for (const XmlNode* fresh : node->children_named("freshness")) {
      constraint->set_freshness(
          fresh->require_attr("class"),
          std::stoull(fresh->require_attr("maxAge")));
    }

    ConstraintRegistration reg;
    reg.constraint = std::move(constraint);
    const XmlNode* context_class = node->child("context-class");
    if (context_class != nullptr) reg.context_class = context_class->text;
    const XmlNode* methods = node->child("affected-methods");
    if (methods != nullptr) {
      for (const XmlNode* m : methods->children_named("affected-method")) {
        reg.affected_methods.push_back(parse_affected_method(*m));
      }
    }
    repository.register_constraint(std::move(reg));
    ++loaded;
  }
  return loaded;
}

}  // namespace dedisys
