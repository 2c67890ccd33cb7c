// Outside-in request tracing for the benchmark.
//
// Nothing under src/ is instrumented.  The spans come from three places:
// the benchmark's own client loop (request, tx.begin, middleware.invoke,
// tx.commit), a ServerComponentMonitor (the server chain's entry and exit)
// and a server interceptor appended last to every node's chain (the
// terminal dispatch).  Both hooks are public extension points of
// DedisysNode and run on the invoking client's thread, so each client
// thread fills only its own records.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "objects/invocation.h"
#include "replication/adapt.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// steady_clock timestamps (ns) of one client request's layer boundaries.
/// Untraced requests fill only start and end.
struct RequestSpans {
  std::int64_t start = 0;           ///< before TxScope construction
  std::int64_t begin_end = 0;       ///< TxScope constructed
  std::int64_t chain_start = 0;     ///< monitor before_invocation
  std::int64_t dispatch_start = 0;  ///< last interceptor entered
  std::int64_t dispatch_end = 0;    ///< last interceptor returning
  std::int64_t chain_end = 0;       ///< monitor after_invocation
  std::int64_t invoke_end = 0;      ///< DedisysNode::invoke returned
  std::int64_t end = 0;             ///< commit() returned
  std::int64_t kernel_wait = 0;     ///< enter_section() probe before start
  bool write = false;
  bool ok = false;

  /// Every boundary of a committed traced request was recorded.
  [[nodiscard]] bool complete() const {
    return ok && begin_end != 0 && chain_start != 0 && dispatch_start != 0 &&
           dispatch_end != 0 && chain_end != 0 && invoke_end != 0;
  }
};

/// The record the current thread's open request writes into (null when
/// the thread has no traced request open).
inline thread_local RequestSpans* t_open = nullptr;

/// Marks the server chain's entry and exit of top-level invocations.
class ChainMonitor final : public dedisys::ServerComponentMonitor {
 public:
  void before_invocation(const dedisys::Invocation& inv) override {
    if (t_open != nullptr && !inv.nested) t_open->chain_start = now_ns();
  }
  void after_invocation(const dedisys::Invocation& inv) override {
    if (t_open != nullptr && !inv.nested) t_open->chain_end = now_ns();
  }
};

/// Appended after the built-in CCM and replication interceptors: times
/// chain.proceed, i.e. the terminal dispatch (lock, method body, CMP
/// flush).
class DispatchTimer final : public dedisys::Interceptor {
 public:
  dedisys::Value invoke(dedisys::Invocation& inv,
                        dedisys::InterceptorChain& chain) override {
    RequestSpans* open = inv.nested ? nullptr : t_open;
    if (open != nullptr) open->dispatch_start = now_ns();
    dedisys::Value result = chain.proceed(inv);
    if (open != nullptr) open->dispatch_end = now_ns();
    return result;
  }
  [[nodiscard]] std::string name() const override {
    return "PerfbenchDispatchTimer";
  }
};

/// A span recorded by the benchmark's main thread (set-up steps, faults,
/// reconciliation).
struct NamedSpan {
  std::string name;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

}  // namespace perfbench
