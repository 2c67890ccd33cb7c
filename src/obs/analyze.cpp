#include "obs/analyze.h"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <unordered_map>

namespace dedisys::obs {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Members list out of a view.change detail: "members={0,1,2} complete=…".
std::vector<std::uint64_t> parse_view_members(const std::string& detail) {
  std::vector<std::uint64_t> members;
  const std::size_t open = detail.find('{');
  const std::size_t close = detail.find('}', open == std::string::npos ? 0 : open);
  if (open == std::string::npos || close == std::string::npos) return members;
  std::size_t i = open + 1;
  while (i < close) {
    if (detail[i] < '0' || detail[i] > '9') {
      ++i;
      continue;
    }
    members.push_back(std::strtoull(detail.c_str() + i, nullptr, 10));
    while (i < close && detail[i] >= '0' && detail[i] <= '9') ++i;
  }
  std::sort(members.begin(), members.end());
  return members;
}

std::string joined(const std::vector<std::uint64_t>& ids) {
  std::string out = "{";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(ids[i]);
  }
  return out + "}";
}

/// Threat identity as CCMgr forms it: "<constraint>@<context object|->".
std::string threat_identity(const TraceEvent& e) {
  return e.label + '@' +
         (e.object.valid() ? std::to_string(e.object.value()) : "-");
}

}  // namespace

const char* phase_of(const std::string& span_label) {
  if (starts_with(span_label, "gcs.")) return "network";
  if (starts_with(span_label, "replication.")) return "replication";
  if (starts_with(span_label, "validation")) return "validation";
  if (starts_with(span_label, "reconcile")) return "reconciliation";
  if (span_label == "2pc") return "2pc";
  return "interception";
}

std::vector<SpanTree> build_span_trees(const std::vector<TraceEvent>& events) {
  // trace id -> (span id -> span); std::map keeps the output deterministic.
  std::map<std::uint64_t, std::map<std::uint64_t, Span>> by_trace;
  for (const TraceEvent& e : events) {
    if (e.trace_id == 0 || e.span_id == 0) continue;
    Span& span = by_trace[e.trace_id][e.span_id];
    if (span.id == 0) {
      span.id = e.span_id;
      span.parent = e.parent_span;
      span.trace_id = e.trace_id;
      span.start = e.at;
      span.end = e.at;
    }
    switch (e.kind) {
      case TraceEventKind::SpanStart:
        span.saw_start = true;
        span.start = e.at;
        span.label = e.label;
        span.node = e.node;
        span.object = e.object;
        span.tx = e.tx;
        break;
      case TraceEventKind::SpanEnd:
        span.saw_end = true;
        span.end = e.at;
        if (span.label.empty()) span.label = e.label;
        break;
      default:
        ++span.events;
        if (!span.saw_start && e.at < span.start) span.start = e.at;
        if (!span.saw_end && e.at > span.end) span.end = e.at;
        break;
    }
  }

  std::vector<SpanTree> trees;
  trees.reserve(by_trace.size());
  for (auto& [trace_id, spans] : by_trace) {
    SpanTree tree;
    tree.trace_id = trace_id;
    tree.spans = std::move(spans);
    for (auto& [id, span] : tree.spans) {
      auto parent = tree.spans.find(span.parent);
      if (span.parent != 0 && parent != tree.spans.end()) {
        parent->second.children.push_back(id);
      } else {
        tree.roots.push_back(id);
      }
    }
    const auto by_start = [&tree](std::uint64_t a, std::uint64_t b) {
      const Span& sa = tree.spans.at(a);
      const Span& sb = tree.spans.at(b);
      return sa.start != sb.start ? sa.start < sb.start : a < b;
    };
    for (auto& [id, span] : tree.spans) {
      (void)id;
      std::sort(span.children.begin(), span.children.end(), by_start);
    }
    std::sort(tree.roots.begin(), tree.roots.end(), by_start);
    trees.push_back(std::move(tree));
  }
  return trees;
}

namespace {

/// Critical path: from the root, keep descending into the child span that
/// finishes last — the chain that bounds the trace's end-to-end latency.
std::vector<CriticalHop> critical_path_of(const SpanTree& tree,
                                          std::uint64_t root) {
  std::vector<CriticalHop> path;
  const Span* cur = tree.find(root);
  while (cur != nullptr && path.size() < 64) {
    const Span* next = nullptr;
    for (std::uint64_t child_id : cur->children) {
      const Span* child = tree.find(child_id);
      if (child == nullptr) continue;
      if (next == nullptr || child->end > next->end ||
          (child->end == next->end && child->id > next->id)) {
        next = child;
      }
    }
    CriticalHop hop;
    hop.span = cur->id;
    hop.label = cur->label;
    hop.node = cur->node;
    hop.start = cur->start;
    hop.end = cur->end;
    hop.self_us = cur->duration() - (next != nullptr ? next->duration() : 0);
    if (hop.self_us < 0) hop.self_us = 0;
    path.push_back(std::move(hop));
    cur = next;
  }
  return path;
}

}  // namespace

TraceAnalysis analyze(const std::vector<TraceEvent>& events) {
  TraceAnalysis out;
  out.trees = build_span_trees(events);

  for (const SpanTree& tree : out.trees) {
    TraceSummary summary;
    summary.trace_id = tree.trace_id;
    bool first = true;
    for (const auto& [id, span] : tree.spans) {
      (void)id;
      if (first || span.start < summary.start) summary.start = span.start;
      if (first || span.end > summary.end) summary.end = span.end;
      first = false;
      summary.events += span.events;
      SimDuration self = span.duration();
      for (std::uint64_t child_id : span.children) {
        const Span* child = tree.find(child_id);
        if (child != nullptr) self -= child->duration();
      }
      if (self < 0) self = 0;
      summary.phase_self_us[phase_of(span.label)] += self;
    }
    summary.spans = tree.spans.size();
    summary.duration_us = summary.end - summary.start;
    if (!tree.roots.empty()) {
      const Span& root = tree.spans.at(tree.roots.front());
      summary.root_label = root.label;
      summary.root_node = root.node;
      summary.critical_path = critical_path_of(tree, root.id);
    }
    out.traces.push_back(std::move(summary));
  }

  SimTime last_at = 0;
  // node value -> (mode, since); nodes are "healthy" from the first event.
  std::map<std::uint64_t, std::pair<std::string, SimTime>> mode_state;
  SimTime first_at = events.empty() ? 0 : events.front().at;
  for (const TraceEvent& e : events) {
    if (e.at > last_at) last_at = e.at;
    if (e.trace_id != 0 && e.kind != TraceEventKind::SpanStart &&
        e.kind != TraceEventKind::SpanEnd) {
      ++out.traced_events;
    }
    if (e.trace_id == 0) ++out.orphan_events;
    if (e.kind != TraceEventKind::ModeTransition || !e.node.valid()) continue;
    ModeSample sample;
    sample.at = e.at;
    sample.node = e.node;
    sample.to = e.label;
    sample.from = starts_with(e.detail, "from ") ? e.detail.substr(5)
                                                 : e.detail;
    auto [it, inserted] =
        mode_state.try_emplace(e.node.value(), sample.from, first_at);
    out.mode_residency[e.node.value()][it->second.first] +=
        e.at - it->second.second;
    it->second = {sample.to, e.at};
    (void)inserted;
    out.mode_timeline.push_back(std::move(sample));
  }
  for (const auto& [node, state] : mode_state) {
    out.mode_residency[node][state.first] += last_at - state.second;
  }
  return out;
}

std::vector<const TraceSummary*> slowest_traces(const TraceAnalysis& analysis,
                                                std::size_t top_k) {
  std::vector<const TraceSummary*> sorted;
  sorted.reserve(analysis.traces.size());
  for (const TraceSummary& t : analysis.traces) sorted.push_back(&t);
  std::sort(sorted.begin(), sorted.end(),
            [](const TraceSummary* a, const TraceSummary* b) {
              return a->duration_us != b->duration_us
                         ? a->duration_us > b->duration_us
                         : a->trace_id < b->trace_id;
            });
  if (sorted.size() > top_k) sorted.resize(top_k);
  return sorted;
}

TraceCheckResult check_events(const std::vector<TraceEvent>& events,
                              std::size_t dropped) {
  TraceCheckResult result;
  result.complete = dropped == 0;

  // -- no-lost-threats bookkeeping.
  struct LiveThreat {
    std::uint64_t tx = 0;   ///< accepting transaction (0 = stored directly)
    bool durable = false;   ///< stored (tx committed or no tx)
  };
  std::map<std::string, LiveThreat> live;
  std::map<std::uint64_t, std::vector<std::string>> staged_by_tx;
  std::set<std::string> tracked;
  bool in_reconcile = false;
  std::set<std::string> window_snapshot;
  std::set<std::string> window_seen;

  // -- one-primary-per-partition bookkeeping.
  std::map<std::uint64_t, std::vector<std::uint64_t>> views;
  std::set<std::string> reported_view_pairs;
  bool views_dirty = false;
  SimTime last_view_at = 0;

  const auto check_views = [&]() {
    ++result.view_checks;
    for (auto a = views.begin(); a != views.end(); ++a) {
      for (auto b = std::next(a); b != views.end(); ++b) {
        const bool mutual =
            std::binary_search(a->second.begin(), a->second.end(), b->first) &&
            std::binary_search(b->second.begin(), b->second.end(), a->first);
        if (!mutual || a->second == b->second) continue;
        const std::string key = std::to_string(a->first) + joined(a->second) +
                                '/' + std::to_string(b->first) +
                                joined(b->second);
        if (!reported_view_pairs.insert(key).second) continue;
        result.violations.push_back(
            {"one-primary-per-partition",
             "nodes " + std::to_string(a->first) + " and " +
                 std::to_string(b->first) +
                 " believe they share a partition but installed different "
                 "views " +
                 joined(a->second) + " vs " + joined(b->second)});
      }
    }
  };

  for (const TraceEvent& e : events) {
    // Views are compared only once simulated time moves past the install
    // burst: every node's install for one membership change carries the
    // same stamp (the GMS recompute costs no simulated time), but other
    // same-instant events — mode transitions, the fault action itself —
    // interleave with the installs, so a mid-burst comparison would flag
    // the half-updated state as a transient false split brain.
    if (views_dirty && e.at > last_view_at) {
      check_views();
      views_dirty = false;
    }
    switch (e.kind) {
      case TraceEventKind::ViewChange:
        if (e.node.valid()) {
          views[e.node.value()] = parse_view_members(e.detail);
          views_dirty = true;
          last_view_at = e.at;
        }
        break;
      case TraceEventKind::ThreatAccepted: {
        const std::string id = threat_identity(e);
        tracked.insert(id);
        // A repeat occurrence of an identity that is already durably
        // stored (IdenticalOnce dedup) must not be downgraded to
        // tx-staged: aborting the repeat leaves the original store live.
        if (auto it = live.find(id); it != live.end() && it->second.durable) {
          break;
        }
        if (e.tx.valid()) {
          live[id] = LiveThreat{e.tx.value(), false};
          staged_by_tx[e.tx.value()].push_back(id);
        } else {
          live[id] = LiveThreat{0, true};
        }
        break;
      }
      case TraceEventKind::TxCommit:
        if (e.tx.valid()) {
          auto it = staged_by_tx.find(e.tx.value());
          if (it != staged_by_tx.end()) {
            for (const std::string& id : it->second) {
              auto t = live.find(id);
              if (t != live.end() && t->second.tx == e.tx.value()) {
                t->second.durable = true;
              }
            }
            staged_by_tx.erase(it);
          }
        }
        break;
      case TraceEventKind::TxAbort:
        if (e.tx.valid()) {
          auto it = staged_by_tx.find(e.tx.value());
          if (it != staged_by_tx.end()) {
            for (const std::string& id : it->second) {
              auto t = live.find(id);
              if (t != live.end() && t->second.tx == e.tx.value() &&
                  !t->second.durable) {
                live.erase(t);
              }
            }
            staged_by_tx.erase(it);
          }
        }
        break;
      case TraceEventKind::ThreatResolved:
        live.erase(threat_identity(e));
        break;
      case TraceEventKind::ReconcileStart:
        in_reconcile = true;
        window_snapshot.clear();
        window_seen.clear();
        for (const auto& [id, threat] : live) {
          if (threat.durable) window_snapshot.insert(id);
        }
        break;
      case TraceEventKind::ThreatReconciled: {
        const std::string id = threat_identity(e);
        if (in_reconcile) window_seen.insert(id);
        if (e.detail == "satisfied" || e.detail == "resolved" ||
            e.detail == "rolled-back") {
          live.erase(id);
        }
        break;
      }
      case TraceEventKind::ReconcileEnd:
        if (in_reconcile) {
          ++result.reconciles;
          for (const std::string& id : window_snapshot) {
            if (window_seen.count(id) != 0 || live.count(id) == 0) continue;
            result.violations.push_back(
                {"no-lost-threats",
                 "threat " + id +
                     " was accepted but never re-evaluated during the "
                     "reconciliation ending at " +
                     std::to_string(e.at) + " us"});
          }
          in_reconcile = false;
        }
        break;
      default:
        break;
    }
  }
  if (views_dirty) check_views();
  result.threats_tracked = tracked.size();
  return result;
}

std::vector<TraceEvent> events_from_json(const Json& doc) {
  static constexpr TraceEventKind kAllKinds[] = {
      TraceEventKind::SpanStart,       TraceEventKind::SpanEnd,
      TraceEventKind::InvocationStart, TraceEventKind::InvocationEnd,
      TraceEventKind::Validation,      TraceEventKind::ValidationSkipped,
      TraceEventKind::ValidationProven,
      TraceEventKind::ThreatDetected,  TraceEventKind::ThreatNegotiated,
      TraceEventKind::ThreatAccepted,  TraceEventKind::ThreatRejected,
      TraceEventKind::ThreatReconciled, TraceEventKind::ThreatResolved,
      TraceEventKind::TxPrepare,       TraceEventKind::TxCommit,
      TraceEventKind::TxAbort,         TraceEventKind::ViewChange,
      TraceEventKind::ModeTransition,  TraceEventKind::ReplicaPropagate,
      TraceEventKind::ReconcileStart,  TraceEventKind::ReconcileEnd,
      TraceEventKind::NetworkSplit,    TraceEventKind::NetworkHeal,
      TraceEventKind::FaultInjected,   TraceEventKind::MsgRetried,
      TraceEventKind::MsgDeduped,      TraceEventKind::NodeRestarted};
  static const std::unordered_map<std::string, TraceEventKind> kByName = [] {
    std::unordered_map<std::string, TraceEventKind> map;
    for (TraceEventKind kind : kAllKinds) map.emplace(to_string(kind), kind);
    return map;
  }();

  const Json* list = &doc;
  if (doc.is_object() && doc.contains("trace")) list = &doc.at("trace");
  if (list->is_object() && list->contains("events")) {
    list = &list->at("events");
  }
  std::vector<TraceEvent> events;
  if (!list->is_array()) return events;
  for (std::size_t i = 0; i < list->size(); ++i) {
    const Json& item = list->at(i);
    if (!item.is_object()) continue;
    const auto u64 = [&item](const char* key) {
      return static_cast<std::uint64_t>(item.at(key).as_int());
    };
    TraceEvent e;
    if (item.contains("seq")) e.seq = u64("seq");
    if (item.contains("at_us")) e.at = item.at("at_us").as_int();
    if (item.contains("kind")) {
      auto it = kByName.find(item.at("kind").as_string());
      if (it == kByName.end()) continue;
      e.kind = it->second;
    }
    if (item.contains("node")) e.node = NodeId{u64("node")};
    if (item.contains("object")) e.object = ObjectId{u64("object")};
    if (item.contains("tx")) e.tx = TxId{u64("tx")};
    if (item.contains("label")) e.label = item.at("label").as_string();
    if (item.contains("detail")) e.detail = item.at("detail").as_string();
    if (item.contains("trace")) e.trace_id = u64("trace");
    if (item.contains("span")) e.span_id = u64("span");
    if (item.contains("parent")) e.parent_span = u64("parent");
    events.push_back(std::move(e));
  }
  return events;
}

Json spans_to_json(const TraceAnalysis& analysis, std::size_t top_k) {
  Json out = Json::object();
  out.set("traces", analysis.traces.size());
  out.set("traced_events", analysis.traced_events);
  out.set("orphan_events", analysis.orphan_events);
  Json top = Json::array();
  for (const TraceSummary* t : slowest_traces(analysis, top_k)) {
    Json entry = Json::object();
    entry.set("trace", t->trace_id);
    entry.set("root", t->root_label);
    if (t->root_node.valid()) entry.set("node", t->root_node.value());
    entry.set("start_us", t->start);
    entry.set("duration_us", t->duration_us);
    entry.set("spans", t->spans);
    entry.set("events", t->events);
    Json phases = Json::object();
    for (const auto& [phase, self_us] : t->phase_self_us) {
      phases.set(phase, self_us);
    }
    entry.set("phases", std::move(phases));
    top.push_back(std::move(entry));
  }
  out.set("top", std::move(top));
  return out;
}

Json critical_path_to_json(const TraceAnalysis& analysis) {
  Json out = Json::array();
  const auto slowest = slowest_traces(analysis, 1);
  if (slowest.empty()) return out;
  for (const CriticalHop& hop : slowest.front()->critical_path) {
    Json entry = Json::object();
    entry.set("span", hop.span);
    entry.set("label", hop.label);
    if (hop.node.valid()) entry.set("node", hop.node.value());
    entry.set("start_us", hop.start);
    entry.set("end_us", hop.end);
    entry.set("self_us", hop.self_us);
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace dedisys::obs
