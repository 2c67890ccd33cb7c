// Durable snapshots of record stores.
//
// The paper's middleware relies on database persistence to survive node
// pause-crashes: threats, replica metadata and entity state are durable.
// RecordStore is an in-memory substitute; these helpers give it an actual
// durability story — a length-prefixed text format that round-trips every
// Value type (including strings with arbitrary bytes) and fails loudly on
// corrupt input.
//
// Format (one logical line per item, '\n'-terminated):
//   table <len> <name>
//   record <len> <key> <field-count>
//   field <len> <name> <type> [payload]
// where <len> prefixes count bytes of the following token (which may
// contain spaces or newlines).
#pragma once

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>

#include "objects/value.h"
#include "persist/record_store.h"
#include "util/errors.h"

namespace dedisys {

namespace snapshot_detail {

inline void write_token(std::ostream& out, const std::string& token) {
  out << token.size() << ' ' << token;
}

/// Reads a length-prefixed token.  The prefix is untrusted: the token
/// grows in bounded chunks only as far as the input really reaches, so a
/// false length ends in "truncated token", never in a huge allocation.
inline std::string read_token(std::istream& in) {
  std::size_t len = 0;
  if (!(in >> len)) throw ConfigError("snapshot: expected token length");
  if (in.get() != ' ') throw ConfigError("snapshot: expected separator");
  constexpr std::size_t kChunk = 4096;
  std::string token;
  while (token.size() < len) {
    const std::size_t want = std::min(kChunk, len - token.size());
    const std::size_t have = token.size();
    token.resize(have + want);
    in.read(token.data() + have, static_cast<std::streamsize>(want));
    if (in.gcount() != static_cast<std::streamsize>(want)) {
      throw ConfigError("snapshot: truncated token");
    }
  }
  return token;
}

/// Extracts one payload of `type`, failing loudly when it does not parse.
template <typename T>
T read_payload(std::istream& in, const std::string& type) {
  T value{};
  if (!(in >> value)) throw ConfigError("snapshot: bad " + type + " payload");
  return value;
}

inline void write_value(std::ostream& out, const Value& v) {
  struct Visitor {
    std::ostream& out;
    void operator()(std::monostate) const { out << "null"; }
    void operator()(bool b) const { out << "bool " << (b ? 1 : 0); }
    void operator()(std::int64_t i) const { out << "int " << i; }
    void operator()(double d) const {
      out.precision(17);
      out << "double " << d;
    }
    void operator()(const std::string& s) const {
      out << "string ";
      write_token(out, s);
    }
    void operator()(ObjectId id) const { out << "object " << id.value(); }
  };
  std::visit(Visitor{out}, v);
}

inline Value read_value(std::istream& in) {
  std::string type;
  if (!(in >> type)) throw ConfigError("snapshot: expected value type");
  if (type == "null") return Value{};
  if (type == "bool") return Value{read_payload<int>(in, type) != 0};
  if (type == "int") return Value{read_payload<std::int64_t>(in, type)};
  if (type == "double") return Value{read_payload<double>(in, type)};
  if (type == "string") {
    if (in.get() != ' ') throw ConfigError("snapshot: expected separator");
    return Value{read_token(in)};
  }
  if (type == "object") {
    return Value{ObjectId{read_payload<std::uint64_t>(in, type)}};
  }
  throw ConfigError("snapshot: unknown value type " + type);
}

}  // namespace snapshot_detail

/// Writes every table of `store` to `out`.
inline void save_snapshot(const RecordStore& store, std::ostream& out) {
  using namespace snapshot_detail;
  for (const auto& [table, records] : store.tables()) {
    out << "table ";
    write_token(out, table);
    out << '\n';
    for (const auto& [key, record] : records) {
      out << "record ";
      write_token(out, key);
      out << ' ' << record.size() << '\n';
      for (const auto& [field, value] : record) {
        out << "field ";
        write_token(out, field);
        out << ' ';
        write_value(out, value);
        out << '\n';
      }
    }
  }
}

/// Rebuilds a store's content from a snapshot (replacing its tables).
/// Costs are NOT charged: recovery happens outside measured operation.
inline void load_snapshot(RecordStore& store, std::istream& in) {
  using namespace snapshot_detail;
  store.reset_tables();
  std::string item;
  std::string current_table;
  while (in >> item) {
    if (item == "table") {
      if (in.get() != ' ') throw ConfigError("snapshot: expected separator");
      current_table = read_token(in);
    } else if (item == "record") {
      if (current_table.empty()) {
        throw ConfigError("snapshot: record before table");
      }
      if (in.get() != ' ') throw ConfigError("snapshot: expected separator");
      const std::string key = read_token(in);
      std::size_t fields = 0;
      if (!(in >> fields)) throw ConfigError("snapshot: expected field count");
      AttributeMap record;
      for (std::size_t i = 0; i < fields; ++i) {
        std::string marker;
        if (!(in >> marker) || marker != "field") {
          throw ConfigError("snapshot: expected field entry");
        }
        if (in.get() != ' ') throw ConfigError("snapshot: expected separator");
        const std::string name = read_token(in);
        record[name] = read_value(in);
      }
      store.restore_record(current_table, key, std::move(record));
    } else {
      throw ConfigError("snapshot: unknown item " + item);
    }
  }
}

}  // namespace dedisys
