#include "scenarios/script.h"

#include <sstream>

#include "constraints/negotiation.h"
#include "util/strings.h"

namespace dedisys::scenarios {

namespace {

class ScriptNegotiation final : public NegotiationHandler {
 public:
  explicit ScriptNegotiation(bool accept) : accept_(accept) {}
  NegotiationOutcome negotiate(const ConsistencyThreat&,
                               ConstraintValidationContext&) override {
    NegotiationOutcome out;
    out.accepted = accept_;
    return out;
  }

 private:
  bool accept_;
};

std::vector<std::vector<std::size_t>> parse_groups(const std::string& spec) {
  std::vector<std::vector<std::size_t>> groups;
  for (const std::string& group : split(spec, '|')) {
    std::vector<std::size_t> nodes;
    for (const std::string& n : split(group, ',')) {
      nodes.push_back(std::stoul(n));
    }
    groups.push_back(std::move(nodes));
  }
  return groups;
}

std::size_t to_count(const std::string& word, std::size_t line) {
  try {
    return std::stoul(word);
  } catch (const std::exception&) {
    throw ConfigError("script line " + std::to_string(line) +
                      ": expected a number, got '" + word + "'");
  }
}

/// Best-effort argument boxing: integers stay integers, everything else is
/// a string.
Value parse_arg(const std::string& word) {
  if (!word.empty() &&
      word.find_first_not_of("-0123456789") == std::string::npos) {
    return Value{static_cast<std::int64_t>(std::stoll(word))};
  }
  return Value{word};
}

}  // namespace

ScriptReport ScriptRunner::run(const std::string& script) {
  ScriptReport report;
  std::istringstream in(script);
  std::string raw;
  std::size_t line_number = 0;
  while (std::getline(in, raw)) {
    ++line_number;
    const std::string_view trimmed = trim(raw);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    std::vector<std::string> words;
    std::istringstream ws{std::string(trimmed)};
    std::string w;
    while (ws >> w) words.push_back(w);
    execute(words, line_number, report);
  }
  return report;
}

void ScriptRunner::run_invocations(const std::string& method,
                                   std::size_t count, std::vector<Value> args,
                                   ScriptReport& report) {
  if (working_set_.empty()) {
    throw ConfigError("script: 'invoke' before any 'create'");
  }
  DedisysNode& node = acting_node();
  for (std::size_t i = 0; i < count; ++i) {
    const ObjectId target = working_set_[i % working_set_.size()];
    try {
      TxScope tx(node.tx());
      if (negotiation_ != Negotiation::Static) {
        node.ccmgr().register_negotiation_handler(
            tx.id(), std::make_shared<ScriptNegotiation>(
                         negotiation_ == Negotiation::Accept));
      }
      node.invoke(tx.id(), target, method, args);
      tx.commit();
      ++report.committed_ops;
    } catch (const DedisysError&) {
      ++report.aborted_ops;
    }
  }
}

void ScriptRunner::execute(const std::vector<std::string>& words,
                           std::size_t line, ScriptReport& report) {
  const std::string& cmd = words.front();
  const auto need = [&](std::size_t n) {
    if (words.size() < n + 1) {
      throw ConfigError("script line " + std::to_string(line) + ": '" + cmd +
                        "' needs " + std::to_string(n) + " argument(s)");
    }
  };
  const auto node_arg = [&] {
    need(1);
    const std::size_t index = to_count(words[1], line);
    if (index >= cluster_->size()) {
      throw ConfigError("script line " + std::to_string(line) +
                        ": no node " + words[1]);
    }
    return index;
  };

  ScriptCommandResult result;
  result.line = line;
  result.command = join(words, " ");
  const SimTime start = cluster_->sim().clock.now();

  if (cmd == "node") {
    acting_ = node_arg();
  } else if (cmd == "create") {
    need(2);
    const std::size_t n = to_count(words[2], line);
    working_set_.clear();
    DedisysNode& node = acting_node();
    for (std::size_t i = 0; i < n; ++i) {
      TxScope tx(node.tx());
      working_set_.push_back(node.create(tx.id(), words[1]));
      tx.commit();
      ++report.committed_ops;
    }
    result.ops = n;
  } else if (cmd == "invoke") {
    need(2);
    const std::size_t n = to_count(words[2], line);
    std::vector<Value> args;
    for (std::size_t i = 3; i < words.size(); ++i) {
      args.push_back(parse_arg(words[i]));
    }
    run_invocations(words[1], n, std::move(args), report);
    result.ops = n;
  } else if (cmd == "delete") {
    DedisysNode& node = acting_node();
    for (ObjectId id : working_set_) {
      TxScope tx(node.tx());
      node.destroy(tx.id(), id);
      tx.commit();
      ++report.committed_ops;
    }
    result.ops = working_set_.size();
    working_set_.clear();
  } else if (cmd == "negotiate") {
    need(1);
    if (words[1] == "accept") {
      negotiation_ = Negotiation::Accept;
    } else if (words[1] == "reject") {
      negotiation_ = Negotiation::Reject;
    } else if (words[1] == "static") {
      negotiation_ = Negotiation::Static;
    } else {
      throw ConfigError("script line " + std::to_string(line) +
                        ": unknown negotiation mode " + words[1]);
    }
  } else if (cmd == "split") {
    need(1);
    cluster_->inject(fault::split_indices(parse_groups(words[1])));
  } else if (cmd == "heal") {
    cluster_->inject(fault::Heal{});
  } else if (cmd == "crash") {
    cluster_->inject(fault::Crash{cluster_->node(node_arg()).id()});
  } else if (cmd == "recover") {
    cluster_->inject(fault::Restart{cluster_->node(node_arg()).id()});
  } else if (cmd == "reconcile") {
    (void)cluster_->reconcile();
  } else if (cmd == "expect-threats") {
    need(1);
    const std::size_t expected = to_count(words[1], line);
    if (cluster_->threats().identity_count() != expected) {
      throw DedisysError(
          "script line " + std::to_string(line) + ": expected " +
          std::to_string(expected) + " threats, found " +
          std::to_string(cluster_->threats().identity_count()));
    }
  } else if (cmd == "expect-mode") {
    need(1);
    const std::string actual = to_string(acting_node().mode());
    if (actual != words[1]) {
      throw DedisysError("script line " + std::to_string(line) +
                         ": expected mode " + words[1] + ", found " + actual);
    }
  } else if (cmd == "expect-attr") {
    need(3);
    const std::size_t index = to_count(words[1], line);
    if (index >= working_set_.size()) {
      throw ConfigError("script line " + std::to_string(line) +
                        ": working-set index out of range");
    }
    const Entity& entity =
        acting_node().replication().local_replica(working_set_[index]);
    const std::string actual = to_string(entity.get(words[2]));
    const std::string expected = to_string(parse_arg(words[3]));
    if (actual != expected) {
      throw DedisysError("script line " + std::to_string(line) +
                         ": expected " + words[2] + "=" + expected +
                         ", found " + actual);
    }
  } else {
    throw ConfigError("script line " + std::to_string(line) +
                      ": unknown command '" + cmd + "'");
  }

  result.elapsed = cluster_->sim().clock.now() - start;
  report.commands.push_back(std::move(result));
}

// ---------------------------------------------------------------------------
// FailureSchedule
// ---------------------------------------------------------------------------

FailureSchedule& FailureSchedule::split_at(
    SimTime when, std::vector<std::vector<std::size_t>> groups) {
  Cluster* cluster = cluster_;
  cluster_->sim().events.schedule_at(
      when, [cluster, groups = std::move(groups)] {
        cluster->inject(fault::split_indices(groups));
      });
  return *this;
}

FailureSchedule& FailureSchedule::heal_at(SimTime when) {
  Cluster* cluster = cluster_;
  cluster_->sim().events.schedule_at(when, [cluster] { cluster->inject(fault::Heal{}); });
  return *this;
}

FailureSchedule& FailureSchedule::crash_at(SimTime when, std::size_t node) {
  Cluster* cluster = cluster_;
  cluster_->sim().events.schedule_at(when, [cluster, node] {
    cluster->inject(fault::Crash{cluster->node(node).id()});
  });
  return *this;
}

FailureSchedule& FailureSchedule::recover_at(SimTime when, std::size_t node) {
  Cluster* cluster = cluster_;
  cluster_->sim().events.schedule_at(when, [cluster, node] {
    cluster->inject(fault::Restart{cluster->node(node).id()});
  });
  return *this;
}

}  // namespace dedisys::scenarios
