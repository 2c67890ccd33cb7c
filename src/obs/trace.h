// Structured event tracing: a bounded ring buffer of middleware events.
//
// Every layer of the invocation/threat/reconciliation pipeline can stamp
// events with the simulated clock: invocation spans through the
// interceptor chains, constraint validations with their satisfaction
// degree, the threat lifecycle (detected → negotiated → accepted/rejected
// → reconciled), 2PC prepare/commit/abort, view changes and mode
// transitions.  The recorder is a fixed-capacity ring buffer so tracing a
// long run costs constant memory; when full, the oldest events are
// overwritten and counted as dropped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/ids.h"
#include "util/sim_clock.h"

namespace dedisys::obs {

/// Causal identity of a trace event: which end-to-end request (trace) it
/// belongs to, which unit of work (span) emitted it, and which span caused
/// that one.  Ids are minted by the Observability hub only while tracing is
/// enabled; 0 means "none".  Because the simulator delivers every
/// "network" message as a direct call inside the sender's stack, the
/// ambient span context propagates across nodes for free: a backup's apply
/// runs inside the primary's multicast and inherits its context.
struct TraceContext {
  std::uint64_t trace_id = 0;    ///< end-to-end request identity
  std::uint64_t span_id = 0;     ///< current unit of work
  std::uint64_t parent_span = 0; ///< span that caused this one (0 = root)

  [[nodiscard]] bool valid() const { return trace_id != 0; }
};

enum class TraceEventKind {
  SpanStart,         ///< a causal span opened (label names its phase)
  SpanEnd,           ///< the span closed
  InvocationStart,   ///< a reified call enters the interceptor chain
  InvocationEnd,     ///< the call returned (or threw; see detail)
  Validation,        ///< one constraint validate() with its degree
  ValidationSkipped, ///< invariant skipped by static read-set pruning
  ValidationProven,  ///< invariant skipped: statically proven tautology
  ThreatDetected,    ///< a threat arose (LCC/NCC outcome)
  ThreatNegotiated,  ///< negotiation ran (dynamic handler or static rule)
  ThreatAccepted,    ///< negotiation accepted the threat
  ThreatRejected,    ///< negotiation rejected; tx marked rollback-only
  ThreatReconciled,  ///< reconciliation re-evaluated a stored threat
  ThreatResolved,    ///< a stored threat was removed by a satisfied commit
  TxPrepare,         ///< 2PC phase 1 entered
  TxCommit,          ///< 2PC phase 2 completed
  TxAbort,           ///< transaction rolled back
  ViewChange,        ///< GMS installed a new view
  ModeTransition,    ///< node changed healthy/degraded/reconciling mode
  ReplicaPropagate,  ///< primary pushed an update to its backups
  ReconcileStart,    ///< cluster reconciliation began
  ReconcileEnd,      ///< cluster reconciliation finished
  NetworkSplit,      ///< partition injected
  NetworkHeal,       ///< all link failures repaired
  FaultInjected,     ///< the fault engine applied a scheduled fault action
  MsgRetried,        ///< GCS retransmitted a message after loss/ack loss
  MsgDeduped,        ///< a duplicate delivery was suppressed (idempotence)
  NodeRestarted,     ///< a crashed node rejoined and recovered its state
  AdmissionShed,     ///< the front door load-shed a request (reason in detail)
  AdmissionForward,  ///< a mis-routed request was forwarded to its shard home
};

[[nodiscard]] inline const char* to_string(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::SpanStart: return "span.start";
    case TraceEventKind::SpanEnd: return "span.end";
    case TraceEventKind::InvocationStart: return "invocation.start";
    case TraceEventKind::InvocationEnd: return "invocation.end";
    case TraceEventKind::Validation: return "validation";
    case TraceEventKind::ValidationSkipped: return "validation.skipped";
    case TraceEventKind::ValidationProven: return "validation.proven";
    case TraceEventKind::ThreatDetected: return "threat.detected";
    case TraceEventKind::ThreatNegotiated: return "threat.negotiated";
    case TraceEventKind::ThreatAccepted: return "threat.accepted";
    case TraceEventKind::ThreatRejected: return "threat.rejected";
    case TraceEventKind::ThreatReconciled: return "threat.reconciled";
    case TraceEventKind::ThreatResolved: return "threat.resolved";
    case TraceEventKind::TxPrepare: return "tx.prepare";
    case TraceEventKind::TxCommit: return "tx.commit";
    case TraceEventKind::TxAbort: return "tx.abort";
    case TraceEventKind::ViewChange: return "view.change";
    case TraceEventKind::ModeTransition: return "mode.transition";
    case TraceEventKind::ReplicaPropagate: return "replica.propagate";
    case TraceEventKind::ReconcileStart: return "reconcile.start";
    case TraceEventKind::ReconcileEnd: return "reconcile.end";
    case TraceEventKind::NetworkSplit: return "network.split";
    case TraceEventKind::NetworkHeal: return "network.heal";
    case TraceEventKind::FaultInjected: return "fault.injected";
    case TraceEventKind::MsgRetried: return "msg.retried";
    case TraceEventKind::MsgDeduped: return "msg.deduped";
    case TraceEventKind::NodeRestarted: return "node.restarted";
    case TraceEventKind::AdmissionShed: return "admission.shed";
    case TraceEventKind::AdmissionForward: return "admission.forward";
  }
  return "?";
}

struct TraceEvent {
  std::uint64_t seq = 0;  ///< monotonically increasing record number
  SimTime at = 0;         ///< simulated timestamp
  TraceEventKind kind = TraceEventKind::InvocationStart;
  NodeId node;            ///< node the event happened on (if any)
  ObjectId object;        ///< affected logical object (if any)
  TxId tx;                ///< surrounding transaction (if any)
  std::string label;      ///< method / constraint / view identifier
  std::string detail;     ///< outcome, degree, member list, ...
  std::uint64_t trace_id = 0;    ///< causal trace (0 = outside any trace)
  std::uint64_t span_id = 0;     ///< span that emitted the event
  std::uint64_t parent_span = 0; ///< parent of that span (0 = root)
};

class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity = 4096)
      : capacity_(capacity == 0 ? 1 : capacity) {
    buffer_.reserve(capacity_);
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }
  /// Events overwritten because the ring was full.
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  /// Total events ever recorded (including dropped ones).
  [[nodiscard]] std::uint64_t recorded() const { return next_seq_; }

  void record(TraceEvent event) {
    event.seq = next_seq_++;
    if (buffer_.size() < capacity_) {
      buffer_.push_back(std::move(event));
      return;
    }
    buffer_[head_] = std::move(event);
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }

  /// The retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> events() const {
    std::vector<TraceEvent> out;
    out.reserve(buffer_.size());
    for (std::size_t i = 0; i < buffer_.size(); ++i) {
      out.push_back(buffer_[(head_ + i) % buffer_.size()]);
    }
    return out;
  }

  /// The retained events of one kind, oldest first.
  [[nodiscard]] std::vector<TraceEvent> events_of(TraceEventKind kind) const {
    std::vector<TraceEvent> out;
    for (const TraceEvent& e : events()) {
      if (e.kind == kind) out.push_back(e);
    }
    return out;
  }

  void clear() {
    buffer_.clear();
    head_ = 0;
    dropped_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> buffer_;
  std::size_t head_ = 0;  ///< index of the oldest event once the ring is full
  std::size_t dropped_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dedisys::obs
