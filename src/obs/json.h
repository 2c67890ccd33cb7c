// Minimal JSON value with serialization and parsing.
//
// The observability exporters (bench results, /metrics endpoint, trace
// dumps) need machine-readable output, and the tests need to read that
// output back to verify it round-trips.  This is a deliberately small
// subset of JSON: objects preserve insertion order (stable output for
// diffs), numbers are int64 or double, no \uXXXX escapes beyond ASCII
// pass-through.
#pragma once

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "util/errors.h"

namespace dedisys::obs {

class Json {
 public:
  enum class Type { Null, Bool, Int, Double, String, Array, Object };

  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;
  Json(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) : type_(Type::Bool), bool_(b) {}  // NOLINT
  Json(int v) : type_(Type::Int), int_(v) {}  // NOLINT
  Json(std::int64_t v) : type_(Type::Int), int_(v) {}  // NOLINT
  Json(std::uint64_t v)  // NOLINT
      : type_(Type::Int), int_(static_cast<std::int64_t>(v)) {}
  Json(double v) : type_(Type::Double), double_(v) {}  // NOLINT
  Json(const char* s) : type_(Type::String), string_(s) {}  // NOLINT
  Json(std::string s) : type_(Type::String), string_(std::move(s)) {}  // NOLINT
  Json(Array a) : type_(Type::Array), array_(std::move(a)) {}  // NOLINT
  Json(Object o) : type_(Type::Object), object_(std::move(o)) {}  // NOLINT

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::Null; }
  [[nodiscard]] bool is_number() const {
    return type_ == Type::Int || type_ == Type::Double;
  }
  [[nodiscard]] bool is_string() const { return type_ == Type::String; }
  [[nodiscard]] bool is_array() const { return type_ == Type::Array; }
  [[nodiscard]] bool is_object() const { return type_ == Type::Object; }

  [[nodiscard]] bool as_bool() const {
    require(Type::Bool);
    return bool_;
  }
  [[nodiscard]] std::int64_t as_int() const {
    if (type_ == Type::Double) return static_cast<std::int64_t>(double_);
    require(Type::Int);
    return int_;
  }
  [[nodiscard]] double as_double() const {
    if (type_ == Type::Int) return static_cast<double>(int_);
    require(Type::Double);
    return double_;
  }
  [[nodiscard]] const std::string& as_string() const {
    require(Type::String);
    return string_;
  }
  [[nodiscard]] const Array& items() const {
    require(Type::Array);
    return array_;
  }
  [[nodiscard]] const Object& members() const {
    require(Type::Object);
    return object_;
  }

  [[nodiscard]] std::size_t size() const {
    if (type_ == Type::Array) return array_.size();
    if (type_ == Type::Object) return object_.size();
    throw ConfigError("json: size() on non-container");
  }

  void push_back(Json value) {
    require(Type::Array);
    array_.push_back(std::move(value));
  }

  /// Sets (or replaces) an object member, preserving first-insertion order.
  void set(const std::string& key, Json value) {
    require(Type::Object);
    for (auto& [k, v] : object_) {
      if (k == key) {
        v = std::move(value);
        return;
      }
    }
    object_.emplace_back(key, std::move(value));
  }

  [[nodiscard]] bool contains(const std::string& key) const {
    require(Type::Object);
    for (const auto& [k, v] : object_) {
      if (k == key) return true;
    }
    return false;
  }

  [[nodiscard]] const Json& at(const std::string& key) const {
    require(Type::Object);
    for (const auto& [k, v] : object_) {
      if (k == key) return v;
    }
    throw ConfigError("json: missing key: " + key);
  }

  [[nodiscard]] const Json& at(std::size_t index) const {
    require(Type::Array);
    if (index >= array_.size()) throw ConfigError("json: index out of range");
    return array_[index];
  }

  // -- serialization ----------------------------------------------------------

  /// Serializes the value; `indent` >= 0 pretty-prints with that many
  /// spaces per level, -1 emits the compact single-line form.
  [[nodiscard]] std::string dump(int indent = -1) const {
    std::string out;
    write(out, indent, 0);
    return out;
  }

  // -- parsing ---------------------------------------------------------------

  /// Deepest array/object nesting parse() accepts.
  static constexpr std::size_t kMaxDepth = 256;

  /// Parses a JSON document; throws ConfigError on malformed input, on
  /// trailing garbage and on nesting deeper than kMaxDepth.
  static Json parse(const std::string& text) {
    std::size_t pos = 0;
    Json v = parse_value(text, pos, 0);
    skip_ws(text, pos);
    if (pos != text.size()) throw ConfigError("json: trailing characters");
    return v;
  }

 private:
  void require(Type t) const {
    if (type_ != t) throw ConfigError("json: wrong value type");
  }

  static void write_string(std::string& out, const std::string& s) {
    out += '"';
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            static const char* hex = "0123456789abcdef";
            out += "\\u00";
            out += hex[(c >> 4) & 0xF];
            out += hex[c & 0xF];
          } else {
            out += c;
          }
      }
    }
    out += '"';
  }

  static void write_double(std::string& out, double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
    // Keep the number recognizably floating-point on round-trip.
    if (std::strpbrk(buf, ".eEnN") == nullptr) out += ".0";
  }

  void write(std::string& out, int indent, int depth) const {
    const std::string pad =
        indent >= 0 ? std::string(static_cast<std::size_t>(indent) *
                                      (static_cast<std::size_t>(depth) + 1),
                                  ' ')
                    : std::string();
    const std::string close_pad =
        indent >= 0
            ? std::string(
                  static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
                  ' ')
            : std::string();
    const char* nl = indent >= 0 ? "\n" : "";
    const char* colon = indent >= 0 ? ": " : ":";
    switch (type_) {
      case Type::Null: out += "null"; return;
      case Type::Bool: out += bool_ ? "true" : "false"; return;
      case Type::Int: out += std::to_string(int_); return;
      case Type::Double: write_double(out, double_); return;
      case Type::String: write_string(out, string_); return;
      case Type::Array: {
        if (array_.empty()) {
          out += "[]";
          return;
        }
        out += '[';
        out += nl;
        for (std::size_t i = 0; i < array_.size(); ++i) {
          out += pad;
          array_[i].write(out, indent, depth + 1);
          if (i + 1 < array_.size()) out += ',';
          out += nl;
        }
        out += close_pad;
        out += ']';
        return;
      }
      case Type::Object: {
        if (object_.empty()) {
          out += "{}";
          return;
        }
        out += '{';
        out += nl;
        for (std::size_t i = 0; i < object_.size(); ++i) {
          out += pad;
          write_string(out, object_[i].first);
          out += colon;
          object_[i].second.write(out, indent, depth + 1);
          if (i + 1 < object_.size()) out += ',';
          out += nl;
        }
        out += close_pad;
        out += '}';
        return;
      }
    }
  }

  static void skip_ws(const std::string& t, std::size_t& pos) {
    while (pos < t.size() && (t[pos] == ' ' || t[pos] == '\t' ||
                              t[pos] == '\n' || t[pos] == '\r')) {
      ++pos;
    }
  }

  static char peek(const std::string& t, std::size_t pos) {
    if (pos >= t.size()) throw ConfigError("json: unexpected end of input");
    return t[pos];
  }

  static void expect(const std::string& t, std::size_t& pos, char c) {
    if (peek(t, pos) != c) {
      throw ConfigError(std::string("json: expected '") + c + "' at offset " +
                        std::to_string(pos));
    }
    ++pos;
  }

  /// `depth` counts the arrays and objects enclosing the value.
  static Json parse_value(const std::string& t, std::size_t& pos,
                          std::size_t depth) {
    skip_ws(t, pos);
    const char c = peek(t, pos);
    if ((c == '{' || c == '[') && depth == kMaxDepth) {
      throw ConfigError("json: nesting deeper than the limit of " +
                        std::to_string(kMaxDepth) + " levels");
    }
    switch (c) {
      case '{': return parse_object(t, pos, depth + 1);
      case '[': return parse_array(t, pos, depth + 1);
      case '"': return Json(parse_string(t, pos));
      case 't':
        parse_literal(t, pos, "true");
        return Json(true);
      case 'f':
        parse_literal(t, pos, "false");
        return Json(false);
      case 'n':
        parse_literal(t, pos, "null");
        return Json();
      default: return parse_number(t, pos);
    }
  }

  static void parse_literal(const std::string& t, std::size_t& pos,
                            const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p) expect(t, pos, *p);
  }

  static std::string parse_string(const std::string& t, std::size_t& pos) {
    expect(t, pos, '"');
    std::string out;
    while (true) {
      const char c = peek(t, pos++);
      if (c == '"') return out;
      if (c == '\\') {
        const char esc = peek(t, pos++);
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos + 4 > t.size()) {
              throw ConfigError("json: truncated \\u escape");
            }
            const unsigned code =
                static_cast<unsigned>(std::stoul(t.substr(pos, 4), nullptr, 16));
            pos += 4;
            if (code > 0x7F) {
              throw ConfigError("json: non-ASCII \\u escape unsupported");
            }
            out += static_cast<char>(code);
            break;
          }
          default: throw ConfigError("json: bad escape sequence");
        }
      } else {
        out += c;
      }
    }
  }

  static Json parse_number(const std::string& t, std::size_t& pos) {
    const std::size_t start = pos;
    if (peek(t, pos) == '-') ++pos;
    bool is_double = false;
    while (pos < t.size()) {
      const char c = t[pos];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++pos;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos;
      } else {
        break;
      }
    }
    if (pos == start) throw ConfigError("json: invalid number");
    const std::string text = t.substr(start, pos - start);
    try {
      if (is_double) return Json(std::stod(text));
      return Json(static_cast<std::int64_t>(std::stoll(text)));
    } catch (const std::exception&) {
      throw ConfigError("json: invalid number: " + text);
    }
  }

  static Json parse_array(const std::string& t, std::size_t& pos,
                          std::size_t depth) {
    expect(t, pos, '[');
    Json out = array();
    skip_ws(t, pos);
    if (peek(t, pos) == ']') {
      ++pos;
      return out;
    }
    while (true) {
      out.push_back(parse_value(t, pos, depth));
      skip_ws(t, pos);
      const char c = peek(t, pos++);
      if (c == ']') return out;
      if (c != ',') throw ConfigError("json: expected ',' or ']'");
    }
  }

  static Json parse_object(const std::string& t, std::size_t& pos,
                           std::size_t depth) {
    expect(t, pos, '{');
    Json out = object();
    skip_ws(t, pos);
    if (peek(t, pos) == '}') {
      ++pos;
      return out;
    }
    while (true) {
      skip_ws(t, pos);
      std::string key = parse_string(t, pos);
      skip_ws(t, pos);
      expect(t, pos, ':');
      out.set(key, parse_value(t, pos, depth));
      skip_ws(t, pos);
      const char c = peek(t, pos++);
      if (c == '}') return out;
      if (c != ',') throw ConfigError("json: expected ',' or '}'");
    }
  }

  Type type_ = Type::Null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace dedisys::obs
