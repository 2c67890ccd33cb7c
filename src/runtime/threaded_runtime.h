// Wall-clock backend of the Runtime seam: one worker thread per node,
// real steady_clock time, lock-guarded per-node mailboxes.
//
// This backend exists to measure real-hardware throughput and latency
// (bench/bench_wallclock_throughput).  It deliberately models nothing:
// charges are no-ops (real time passes instead), every node is always
// reachable, delivery never fails, and topology never changes — fault
// injection stays exclusive to the sim backend (docs/fault_injection.md).
//
// Concurrency model (docs/runtime.md):
//   * One "kernel" lock serializes protocol sections — regions that
//     manipulate shared middleware state.  It is re-entrant per thread
//     (depth counter) so nested client entry points compose.
//   * run_on posts the closure to the target node's mailbox and blocks
//     until its worker finishes it, RELEASING any held section while
//     waiting so the worker can take it — the same discipline a GIL uses.
//     When the caller already is the target's worker, it runs inline;
//     when the caller is a *different* node's worker, it keeps serving
//     its own mailbox while blocked (nested serve) so a delivery chain
//     that calls back into a waiting node cannot deadlock.
//   * A timer thread services defer_in/defer_at; drain() blocks until the
//     timer queue is empty and idle.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/runtime.h"
#include "sim/cost_model.h"
#include "util/ids.h"
#include "util/sim_clock.h"

namespace dedisys {

class ThreadedRuntime final : public Runtime {
 public:
  /// Spawns one worker thread per node plus the timer thread.  The cost
  /// model is kept for components that *read* tunables (timeouts,
  /// thresholds); charged costs are discarded.
  ThreadedRuntime(std::vector<NodeId> nodes, CostModel cost);
  ~ThreadedRuntime() override;

  ThreadedRuntime(const ThreadedRuntime&) = delete;
  ThreadedRuntime& operator=(const ThreadedRuntime&) = delete;

  // -- time -------------------------------------------------------------

  /// Microseconds of steady_clock time since construction.
  [[nodiscard]] SimTime now() const override;
  /// No skew modeling: every node shares the process clock.
  [[nodiscard]] SimTime local_now(NodeId /*node*/) const override {
    return now();
  }

  // -- cost accounting (all discarded — real time passes instead) -----------

  [[nodiscard]] const CostModel& cost() const override { return cost_; }
  void charge(SimDuration /*d*/) override {}
  bool charge_rpc(NodeId /*from*/, NodeId /*to*/) override { return true; }
  std::size_t charge_multicast(NodeId from,
                               const std::vector<NodeId>& receivers) override {
    std::size_t reached = 0;
    for (NodeId r : receivers) {
      if (r != from) ++reached;
    }
    return reached;
  }
  [[nodiscard]] SimDuration rpc_cost(NodeId /*from*/,
                                     NodeId /*to*/) const override {
    return 0;
  }

  // -- deferred scheduling --------------------------------------------------

  void defer_in(SimDuration delay, std::function<void()> fn) override;
  void defer_at(SimTime when, std::function<void()> fn) override;
  void drain() override;

  // -- messaging and topology --------------------------------------------------

  [[nodiscard]] const std::vector<NodeId>& nodes() const override {
    return nodes_;
  }
  [[nodiscard]] bool reachable(NodeId /*from*/, NodeId /*to*/) const override {
    return true;
  }
  [[nodiscard]] std::vector<NodeId> membership_set(
      NodeId /*from*/) const override {
    return nodes_;
  }
  Delivery delivery_verdict(NodeId /*from*/, NodeId /*to*/) override {
    return Delivery{};
  }
  bool reorder_receivers(NodeId /*from*/,
                         std::vector<NodeId>& /*targets*/) override {
    return false;
  }

  void run_on(NodeId node, const std::function<void()>& fn) override;

  /// Topology is static: listeners are recorded but never fired.
  void subscribe(TopologyListener* listener) override;
  void unsubscribe(TopologyListener* listener) override;

  // -- protocol sections ------------------------------------------------------

  void enter_section() override;
  void exit_section() override;

 private:
  /// One node: a mailbox and the worker thread draining it.  Declared
  /// before Task so a task can name the worker waiting on it.
  struct Worker;

  /// One posted closure plus its completion rendezvous.  `done` is atomic
  /// so a worker blocked in run_on can poll it from its own nested-serve
  /// loop without taking task->mu.  When `waiter` is set, completion also
  /// pokes that worker's mailbox condition variable.
  struct Task {
    std::function<void()> fn;
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<bool> done{false};
    std::exception_ptr error;
    Worker* waiter = nullptr;
  };

  struct Worker {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::shared_ptr<Task>> tasks;
    bool stop = false;
    std::thread thread;
  };

  void worker_loop(Worker& worker);
  void timer_loop();
  /// Runs one task under a Section and signals its completion.
  void execute(Task& task);

  /// Fully releases the kernel lock when this thread holds it; returns the
  /// held depth (0 when not the owner) for reacquire_kernel.
  int release_kernel();
  void reacquire_kernel(int depth);

  std::vector<NodeId> nodes_;
  CostModel cost_;
  std::chrono::steady_clock::time_point start_;

  std::unordered_map<NodeId, std::size_t> index_of_;
  std::vector<std::unique_ptr<Worker>> workers_;

  // Kernel lock.  kernel_depth_ is touched only while kernel_ is held by
  // the touching thread; kernel_owner_ lets a thread cheaply recognise its
  // own re-entry.
  std::mutex kernel_;
  std::atomic<std::thread::id> kernel_owner_{};
  int kernel_depth_ = 0;

  // Timer thread state, all guarded by timer_mu_.
  std::mutex timer_mu_;
  std::condition_variable timer_cv_;       ///< wakes the timer thread
  std::condition_variable timer_idle_cv_;  ///< wakes drain()
  std::multimap<SimTime, std::function<void()>> timers_;
  bool timer_running_ = false;
  bool timer_stop_ = false;
  std::thread timer_thread_;

  std::mutex listeners_mu_;
  std::vector<TopologyListener*> listeners_;
};

}  // namespace dedisys
