// Wall-clock benchmark of the DeDiSys middleware, driven through the
// paper's client API: TxScope + DedisysNode::invoke, Cluster::inject and
// Cluster::reconcile.  README.md in this directory describes the
// workloads, every metric, and which layer metric should move which
// end-to-end metric.
//
//   perfbench --workload healthy_mix|threaded_mix|partition_cycle
//             --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//
// --trace 0 runs untraced and reports the end-to-end metrics.  --trace 1
// installs the outside-in hooks of trace.h on every node, records spans
// per request, reads each layer's counters, times direct calls into single
// modules after the timed phase, and then replays the same operations on a
// fresh untraced cluster to price the tracing (and, on the sim backend, to
// check that tracing changed neither the simulated clock nor any count).
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics.  The exit code is 0 only when every
// output check passed.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "middleware/admin.h"
#include "middleware/cluster.h"
#include "scenarios/flight.h"
#include "sim/fault_plan.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

using dedisys::AdminConsole;
using dedisys::Cluster;
using dedisys::ClusterConfig;
using dedisys::DedisysError;
using dedisys::DedisysNode;
using dedisys::ObjectId;
using dedisys::Runtime;
using dedisys::RuntimeBackend;
using dedisys::SimTime;
using dedisys::TxScope;
using dedisys::Value;
using dedisys::scenarios::FlightBooking;

// -- workloads ----------------------------------------------------------------

enum class Workload { HealthyMix, ThreadedMix, PartitionCycle };

constexpr std::size_t kRounds = 10;     ///< set-ups per run
constexpr std::size_t kBlock = 5;       ///< ops per block, exactly one write
constexpr std::int64_t kSeats = 1'000'000'000;  ///< never sold out
constexpr std::size_t kHealthyFlights = 10'000;
constexpr std::size_t kThreadedClients = 3;
constexpr std::size_t kThreadedFlights = 64;  ///< per client
constexpr std::size_t kPartitionFlights = 5'000;
constexpr std::size_t kPartitionWrites = 20'000;  ///< per cycle
constexpr std::int64_t kWindowNs = 250'000'000;   ///< window of a mix phase
constexpr std::size_t kCalmShare = 4;  ///< medians from the fastest 1/4

const std::string kSell = "sellTickets";
const std::string kGetAvailable = "getAvailable";

/// The OCL seat-limit invariant, deployed through the administrator's
/// descriptor path so XML parsing and static analysis are part of set-up.
constexpr const char* kSeatLimitXml = R"(<?xml version="1.0"?>
<constraints>
  <constraint name="SeatLimit" type="HARD" priority="CRITICAL">
    <ocl>self.soldTickets &lt;= self.seats</ocl>
    <context-class>Flight</context-class>
    <affected-methods>
      <affected-method>
        <objectMethod name="sellTickets">
          <objectClass>Flight</objectClass>
          <arguments><argument>int</argument></arguments>
        </objectMethod>
      </affected-method>
    </affected-methods>
  </constraint>
</constraints>
)";

/// splitmix64: small and fully specified, so one seed gives the same
/// inputs with any standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n).
  std::uint32_t below(std::size_t n) {
    return static_cast<std::uint32_t>(((next() >> 32) * n) >> 32);
  }

 private:
  std::uint64_t state_;
};

/// Seed of one input stream (round, client) derived from the run's seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t round,
                          std::uint64_t client) {
  Rng rng(seed ^ (round << 24) ^ (client << 48));
  return rng.next();
}

std::int64_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return static_cast<std::int64_t>(resident) * sysconf(_SC_PAGESIZE);
}

// -- layer counters -----------------------------------------------------------

/// Counters read straight from each service's stats() and from the
/// repository and record-store counters (summed over nodes).
enum Counter : std::size_t {
  kCommits,
  kAborts,
  kLookups,
  kLookupHits,
  kValidations,
  kSkipped,
  kThreats,
  kMemoHits,
  kPropagated,
  kApplied,
  kHistory,
  kMulticasts,
  kDbWrites,
  kDbReads,
  kCounterCount,
};
using Counters = std::array<std::uint64_t, kCounterCount>;

Counters read_counters(Cluster& c) {
  Counters k{};
  k[kCommits] = c.tx().stats().commits;
  k[kAborts] = c.tx().stats().aborts;
  k[kLookups] = c.constraints().search_count();
  k[kLookupHits] = c.constraints().cache_hit_count();
  k[kMulticasts] = c.gc().stats().multicasts;
  k[kDbWrites] = c.threat_db().write_count();
  k[kDbReads] = c.threat_db().read_count();
  for (std::size_t i = 0; i < c.size(); ++i) {
    DedisysNode& n = c.node(i);
    const auto& cs = n.ccmgr().stats();
    k[kValidations] += cs.validations;
    k[kSkipped] += cs.evaluations_skipped + cs.evaluations_proven;
    k[kThreats] += cs.threats_detected;
    k[kMemoHits] += n.ccmgr().memo_stats().hits;
    const auto& rs = n.replication().stats();
    k[kPropagated] += rs.updates_propagated;
    k[kApplied] += rs.backups_applied;
    k[kHistory] += rs.history_records;
    k[kDbWrites] += n.db().write_count();
    k[kDbReads] += n.db().read_count();
  }
  return k;
}

Counters minus(const Counters& a, const Counters& b) {
  Counters d{};
  for (std::size_t i = 0; i < kCounterCount; ++i) d[i] = a[i] - b[i];
  return d;
}

void add_to(Counters& sum, const Counters& d) {
  for (std::size_t i = 0; i < kCounterCount; ++i) sum[i] += d[i];
}

// -- one client transaction ---------------------------------------------------

/// Begin, invoke, commit through the paper's client API.  A DedisysError
/// from any of the three (lock conflict, violation, rejected threat,
/// unreachable object) is a failed operation.  Traced requests first probe
/// the kernel lock (entered and released at once) and open their record
/// for the hooks.
template <bool kTraced>
bool transact([[maybe_unused]] Runtime& rt, DedisysNode& node, ObjectId flight,
              bool write, RequestSpans& s) {
  if constexpr (kTraced) {
    const std::int64_t probe = now_ns();
    rt.enter_section();
    s.kernel_wait = now_ns() - probe;
    rt.exit_section();
    t_open = &s;
  }
  s.write = write;
  s.start = now_ns();
  try {
    TxScope tx(node.tx());
    if constexpr (kTraced) s.begin_end = now_ns();
    std::vector<Value> args;
    if (write) args.push_back(Value{std::int64_t{1}});
    node.invoke(tx.id(), flight, write ? kSell : kGetAvailable,
                std::move(args));
    if constexpr (kTraced) s.invoke_end = now_ns();
    tx.commit();
    s.ok = true;
  } catch (const DedisysError&) {
    s.ok = false;
  }
  s.end = now_ns();
  if constexpr (kTraced) t_open = nullptr;
  return s.ok;
}

// -- set-up -------------------------------------------------------------------

/// One cluster set up for a workload, with the flights each client uses.
struct Deployment {
  std::unique_ptr<Cluster> cluster;
  std::vector<ObjectId> flights;
  std::size_t clients = 1;     ///< flight-owning clients (partition_cycle: 1)
  std::size_t per_client = 0;  ///< flights owned by each client
  std::int64_t setup_ns = 0;
  double deploy_ms = 0;
  std::vector<NamedSpan> spans;  ///< the set-up steps
};

/// Node of a mix client (threaded_mix: client i at node i; the others run
/// one client at node 0).
std::size_t client_node(Workload w, std::size_t client) {
  return w == Workload::ThreadedMix ? client : 0;
}

/// Cluster construction (worker threads included), constraint
/// registration and deployment, population and warm-up.  Throws when any
/// step fails.
Deployment set_up(Workload w, bool traced) {
  Deployment d;
  const std::int64_t t0 = now_ns();
  std::int64_t t = t0;
  auto step = [&](const char* name) {
    const std::int64_t now = now_ns();
    d.spans.push_back(NamedSpan{name, t, now});
    t = now;
  };

  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.backend = w == Workload::ThreadedMix ? RuntimeBackend::Threaded
                                           : RuntimeBackend::Sim;
  d.cluster = std::make_unique<Cluster>(cfg);
  Cluster& c = *d.cluster;
  if (traced) {
    auto monitor = std::make_shared<ChainMonitor>();
    auto timer = std::make_shared<DispatchTimer>();
    for (std::size_t i = 0; i < c.size(); ++i) {
      c.node(i).add_server_monitor(monitor);
      c.node(i).add_server_interceptor(timer);
    }
  }
  FlightBooking::define_classes(c.classes());
  FlightBooking::register_constraints(c.constraints());
  step("setup.cluster");

  AdminConsole(c).deploy_constraints(kSeatLimitXml);
  step("setup.deploy");
  d.deploy_ms = static_cast<double>(d.spans.back().end -
                                    d.spans.back().start) / 1e6;
  // Only the C++ constraint may raise degraded-mode threats: the analyzer
  // must have proven the OCL invariant intra-object.
  if (!c.constraints().find("SeatLimit").intra_object() ||
      c.constraints().find("TicketConstraint").intra_object()) {
    throw DedisysError("unexpected intra-object analysis of the invariants");
  }

  if (w == Workload::ThreadedMix) {
    d.clients = kThreadedClients;
    d.per_client = kThreadedFlights;
  } else {
    d.per_client =
        w == Workload::HealthyMix ? kHealthyFlights : kPartitionFlights;
  }
  for (std::size_t client = 0; client < d.clients; ++client) {
    DedisysNode& node = c.node(client_node(w, client));
    for (std::size_t i = 0; i < d.per_client; ++i) {
      d.flights.push_back(FlightBooking::create_flight(node, kSeats));
    }
  }
  step("setup.populate");

  // One read of every flight, plus one sell on each client's first flight
  // so the write path's repository-cache entries exist before timing.
  for (std::size_t client = 0; client < d.clients; ++client) {
    DedisysNode& node = c.node(client_node(w, client));
    const ObjectId* flights = d.flights.data() + client * d.per_client;
    for (std::size_t i = 0; i <= d.per_client; ++i) {
      const bool sell = i == d.per_client;
      RequestSpans s;
      if (!transact<false>(c.runtime(), node, flights[sell ? 0 : i], sell,
                           s)) {
        throw DedisysError("warm-up transaction failed");
      }
    }
  }
  step("setup.warmup");
  d.setup_ns = t - t0;
  return d;
}

/// Destroys the cluster and hands its memory back to the kernel, so the
/// next round's RSS growth is its own.
void tear_down(Deployment& d) {
  d.cluster.reset();
  malloc_trim(0);
}

// -- timed phases -------------------------------------------------------------

/// The requests that started in one stretch of a timed phase: kWindowNs
/// of wall time on the mixes, one whole cycle on partition_cycle.
struct Window {
  std::vector<std::int64_t> read_ns;
  std::vector<std::int64_t> write_ns;
  std::uint64_t committed = 0;
  std::int64_t busy_ns = 0;  ///< wall time the window covers

  void add(const Window& w) {
    read_ns.insert(read_ns.end(), w.read_ns.begin(), w.read_ns.end());
    write_ns.insert(write_ns.end(), w.write_ns.begin(), w.write_ns.end());
    committed += w.committed;
    busy_ns += w.busy_ns;
  }

  [[nodiscard]] double ops_per_s() const {
    return static_cast<double>(committed) /
           (static_cast<double>(busy_ns) / 1e9);
  }
};

/// What one client thread recorded; touched only by that thread until the
/// phase joins it.
struct ClientLog {
  std::vector<Window> windows;      ///< by window index; busy_ns unset
  std::vector<RequestSpans> spans;  ///< traced phases only
  std::vector<std::int64_t> sold;   ///< committed sells per owned flight
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(const RequestSpans& s, bool traced, std::size_t window) {
    ++attempted;
    if (windows.size() <= window) windows.resize(window + 1);
    Window& w = windows[window];
    if (s.ok) {
      ++w.committed;
    } else {
      ++failed;
    }
    (s.write ? w.write_ns : w.read_ns).push_back(s.end - s.start);
    if (traced) spans.push_back(s);
  }
};

/// Per-cycle outcome of partition_cycle.
struct CycleStats {
  std::uint64_t reevaluated = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t threat_rows = 0;  ///< threat-database rows at heal
  double constraint_sim_ms = 0;
  double replica_sim_ms = 0;
  std::int64_t reconcile_ns = 0;
};

struct Phase {
  std::vector<ClientLog> logs;
  std::vector<Window> windows;  ///< all clients' requests, by window
  std::int64_t busy_ns = 0;  ///< wall time of the workload, checks excluded
  Counters counters{};       ///< deltas over the phase
  SimTime sim_end = 0;       ///< runtime clock when the phase ended
  std::int64_t rss_growth = 0;
  std::vector<CycleStats> cycles;
  std::vector<NamedSpan> spans;  ///< faults and reconciliation

  [[nodiscard]] std::uint64_t attempted() const {
    std::uint64_t n = 0;
    for (const ClientLog& l : logs) n += l.attempted;
    return n;
  }
  [[nodiscard]] std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const ClientLog& l : logs) n += l.failed;
    return n;
  }
};

/// When a phase stops: at a wall deadline, or (replays) after exactly the
/// given number of operations per client.  Checked between blocks or
/// cycles, so every phase runs whole ones.
struct Budget {
  std::int64_t duration_ns = std::numeric_limits<std::int64_t>::max() / 2;
  std::vector<std::uint64_t> ops;  ///< per client; empty = unbounded

  [[nodiscard]] bool done(std::size_t client, std::uint64_t attempted,
                          std::int64_t now, std::int64_t deadline) const {
    if (!ops.empty()) return attempted >= ops.at(client);
    return now >= deadline;
  }
};

/// A closed-loop client of the 80/20 mix: blocks of five operations on
/// uniformly drawn flights, exactly one a write at a seeded position, so
/// every whole block has the workload's mix and per-op counts repeat
/// exactly.
template <bool kTraced>
void run_mix_client(Cluster& c, DedisysNode& node, const ObjectId* flights,
                    std::size_t count, std::uint64_t seed, std::size_t client,
                    const Budget& budget, std::int64_t start,
                    std::int64_t deadline, ClientLog& log) {
  Rng rng(seed);
  log.sold.assign(count, 0);
  do {
    const std::size_t write_at = rng.below(kBlock);
    for (std::size_t i = 0; i < kBlock; ++i) {
      const std::uint32_t f = rng.below(count);
      RequestSpans s;
      transact<kTraced>(c.runtime(), node, flights[f], i == write_at, s);
      if (s.ok && s.write) ++log.sold[f];
      log.record(s, kTraced,
                 static_cast<std::size_t>((s.start - start) / kWindowNs));
    }
  } while (!budget.done(client, log.attempted, now_ns(), deadline));
}

/// Cuts a mix phase into whole kWindowNs windows, the last one taking the
/// remainder, and pools every client's requests by window.
std::vector<Window> pool_windows(std::vector<ClientLog>& logs,
                                 std::int64_t busy_ns) {
  const auto n =
      std::max<std::size_t>(1, static_cast<std::size_t>(busy_ns / kWindowNs));
  std::vector<Window> pooled(n);
  for (ClientLog& l : logs) {
    for (std::size_t k = 0; k < l.windows.size(); ++k) {
      pooled[std::min(k, n - 1)].add(l.windows[k]);
    }
    l.windows.clear();
  }
  for (std::size_t k = 0; k < n; ++k) {
    pooled[k].busy_ns =
        k + 1 < n ? kWindowNs
                  : busy_ns - static_cast<std::int64_t>(n - 1) * kWindowNs;
  }
  return pooled;
}

template <bool kTraced>
void run_mix(Deployment& d, Workload w, std::uint64_t seed, std::size_t round,
             const Budget& budget, Phase& p) {
  Cluster& c = *d.cluster;
  p.logs.resize(d.clients);
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + budget.duration_ns;
  auto client = [&](std::size_t i) {
    run_mix_client<kTraced>(c, c.node(client_node(w, i)),
                            d.flights.data() + i * d.per_client, d.per_client,
                            stream_seed(seed, round, i), i, budget, start,
                            deadline, p.logs[i]);
  };
  if (d.clients == 1) {
    client(0);
  } else {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < d.clients; ++i) threads.emplace_back(client, i);
    for (std::thread& t : threads) t.join();
  }
  p.busy_ns = now_ns() - start;
  p.windows = pool_windows(p.logs, p.busy_ns);
}

std::size_t threat_rows(Cluster& c) {
  dedisys::RecordStore& db = c.threat_db();
  return db.count("threats") + db.count("threat_objects") +
         db.count("threat_history");
}

bool replicas_agree(Cluster& c, const std::vector<ObjectId>& flights) {
  for (ObjectId id : flights) {
    const auto& first = c.node(0).replication().local_replica(id).attributes();
    for (std::size_t n = 1; n < c.size(); ++n) {
      if (c.node(n).replication().local_replica(id).attributes() != first) {
        return false;
      }
    }
  }
  return true;
}

/// partition_cycle: each cycle splits {0,1} | {2}, sells one ticket 20,000
/// times alternating between clients at node 0 and node 2, heals,
/// reconciles, checks convergence (untimed), and reads every flight back
/// alternating between the same two clients.  Every cycle replays the
/// same seeded write sequence, so per-cycle counts repeat exactly.  Each
/// cycle is one window.
template <bool kTraced>
void run_cycles(Deployment& d, std::uint64_t seed, const Budget& budget,
                Phase& p, std::vector<std::string>& problems) {
  Cluster& c = *d.cluster;
  Runtime& rt = c.runtime();
  // Clients at node 0 and node 2 take turns on this thread, one log.
  p.logs.resize(1);
  ClientLog& log = p.logs.front();
  Rng rng(stream_seed(seed, 0, 0));
  std::vector<std::uint32_t> keys(kPartitionWrites);
  for (std::uint32_t& k : keys) k = rng.below(d.flights.size());
  DedisysNode* clients[2] = {&c.node(0), &c.node(2)};

  const std::int64_t deadline = now_ns() + budget.duration_ns;
  for (std::size_t cycle = 0;; ++cycle) {
    std::int64_t t = now_ns();
    const std::int64_t cycle_start = t;
    auto span = [&](const char* name) {
      const std::int64_t now = now_ns();
      if (kTraced) p.spans.push_back(NamedSpan{name, t, now});
      t = now;
    };
    c.inject(dedisys::fault::split_indices({{0, 1}, {2}}));
    span("fault.split");
    for (std::size_t i = 0; i < keys.size(); ++i) {
      RequestSpans s;
      transact<kTraced>(rt, *clients[i % 2], d.flights[keys[i]], true, s);
      log.record(s, kTraced, cycle);
    }
    t = now_ns();
    c.inject(dedisys::fault::Heal{});
    span("fault.heal");
    CycleStats cs;
    cs.threat_rows = threat_rows(c);
    t = now_ns();
    const Cluster::ReconciliationReport report = c.reconcile();
    cs.reconcile_ns = now_ns() - t;
    span("cluster.reconcile");
    const std::int64_t until_reconciled = t - cycle_start;

    cs.reevaluated = report.constraints.reevaluated;
    cs.conflicts = report.replica.conflicts;
    cs.constraint_sim_ms = static_cast<double>(report.constraint_time) / 1e3;
    cs.replica_sim_ms = static_cast<double>(report.replica_time) / 1e3;
    p.cycles.push_back(cs);
    for (std::size_t n = 0; n < c.size(); ++n) {
      if (c.node(n).mode() != dedisys::SystemMode::Healthy) {
        problems.push_back("node " + std::to_string(n) +
                           " not Healthy after reconcile");
      }
    }
    if (c.threats().identity_count() != 0) {
      problems.push_back("threat store not empty after reconcile");
    }
    if (!replicas_agree(c, d.flights)) {
      problems.push_back("replicas disagree after reconcile");
    }

    const std::int64_t reads_start = now_ns();
    for (std::size_t i = 0; i < d.flights.size(); ++i) {
      RequestSpans s;
      transact<kTraced>(rt, *clients[i % 2], d.flights[i], false, s);
      log.record(s, kTraced, cycle);
    }
    const std::int64_t end = now_ns();
    log.windows[cycle].busy_ns = until_reconciled + (end - reads_start);
    p.busy_ns += log.windows[cycle].busy_ns;
    if (budget.done(0, log.attempted, end, deadline)) break;
  }
  p.windows = std::move(log.windows);
  log.windows.clear();
}

/// Runs one timed phase on a set-up deployment and reads the phase's
/// counter deltas, clock and RSS growth.
template <bool kTraced>
Phase run_phase(Deployment& d, Workload w, std::uint64_t seed,
                std::size_t round, const Budget& budget,
                std::vector<std::string>& problems) {
  Cluster& c = *d.cluster;
  Phase p;
  malloc_trim(0);
  const std::int64_t rss0 = rss_bytes();
  const Counters before = read_counters(c);
  if (w == Workload::PartitionCycle) {
    run_cycles<kTraced>(d, seed, budget, p, problems);
  } else {
    run_mix<kTraced>(d, w, seed, round, budget, p);
  }
  c.runtime().drain();
  p.sim_end = c.runtime().now();
  p.counters = minus(read_counters(c), before);
  p.rss_growth = rss_bytes() - rss0;
  return p;
}

/// set_up, plus one untimed cycle on partition_cycle, counted in setup_s.
/// A round's first cycle is unlike the rest: it is the fastest, and its
/// post-merge reads have a p99 of ~4 us against ~25 us in every later
/// cycle.  Left in, the calm windows would pick it first.
Deployment set_up_warm(Workload w, bool traced, std::uint64_t seed,
                       std::vector<std::string>& problems) {
  Deployment d = set_up(w, traced);
  if (w == Workload::PartitionCycle) {
    const std::int64_t t = now_ns();
    Budget one_cycle;
    one_cycle.ops = {kPartitionWrites + kPartitionFlights};
    const Phase p = run_phase<false>(d, w, seed, 0, one_cycle, problems);
    if (p.failed() != 0) problems.push_back("warm-up cycle failed ops");
    const std::int64_t now = now_ns();
    d.spans.push_back(NamedSpan{"setup.warmup_cycle", t, now});
    d.setup_ns += now - t;
  }
  return d;
}

/// The mixes' output check: every flight's soldTickets agrees on all
/// replicas and equals the sells its client saw commit (plus the warm-up
/// sell on each client's first flight).
void check_mix(Deployment& d, const Phase& p,
               std::vector<std::string>& problems) {
  Cluster& c = *d.cluster;
  for (std::size_t client = 0; client < d.clients; ++client) {
    for (std::size_t i = 0; i < d.per_client; ++i) {
      const ObjectId id = d.flights[client * d.per_client + i];
      const std::int64_t want = p.logs[client].sold[i] + (i == 0 ? 1 : 0);
      for (std::size_t n = 0; n < c.size(); ++n) {
        const Value& got =
            c.node(n).replication().local_replica(id).get("soldTickets");
        if (dedisys::as_int(got) != want) {
          problems.push_back("flight " + dedisys::to_string(id) +
                             " node " + std::to_string(n) + " sold " +
                             std::to_string(dedisys::as_int(got)) +
                             ", committed " + std::to_string(want));
          return;
        }
      }
    }
  }
}

// -- direct unit costs (traced runs, after the timed phase) -------------------

struct UnitCosts {
  double lookup_ns = 0;
  double ancestry_ns = 0;
  double ocl_ns = 0;
  double multicast_ns = 0;
  double run_on_ns = 0;
};

/// Mean time of one call of `f`: the median over five batches of the
/// batch mean.
template <typename F>
double per_call_ns(std::size_t batch, F&& f) {
  std::vector<double> means;
  for (int b = 0; b < 5; ++b) {
    const std::int64_t t = now_ns();
    for (std::size_t i = 0; i < batch; ++i) f();
    means.push_back(static_cast<double>(now_ns() - t) /
                    static_cast<double>(batch));
  }
  return median(means);
}

/// Times calls into single modules on the workload's own cluster: the
/// repository lookups one invocation makes, the class-ancestry query, the
/// OCL invariant on a workload flight, a no-op multicast to the three
/// nodes and a no-op run_on a peer from this (non-worker) thread.
UnitCosts time_unit_costs(Deployment& d, std::vector<std::string>& problems) {
  using dedisys::ConstraintType;
  Cluster& c = *d.cluster;
  Runtime& rt = c.runtime();
  const bool threaded = c.config().backend == RuntimeBackend::Threaded;
  const std::size_t cheap = 20'000;
  const std::size_t hops = threaded ? 500 : 20'000;
  const dedisys::MethodSignature methods[2] = {{kGetAvailable, {}},
                                               {kSell, {"int"}}};
  // The lookups of one invocation: preconditions and the three @pre
  // snapshot types before it, then the four checked types after it.
  const ConstraintType types[8] = {
      ConstraintType::Precondition,  ConstraintType::Postcondition,
      ConstraintType::HardInvariant, ConstraintType::SoftInvariant,
      ConstraintType::Postcondition, ConstraintType::HardInvariant,
      ConstraintType::SoftInvariant, ConstraintType::AsyncInvariant};
  std::size_t sink = 0;
  std::size_t k = 0;
  bool ocl_ok = true;
  UnitCosts u;
  DedisysNode& node = c.node(0);
  {
    Runtime::Section section(rt);
    u.lookup_ns = per_call_ns(cheap, [&] {
      const std::size_t i = k++ % 16;
      sink += c.constraints()
                  .lookup("Flight", methods[i / 8], types[i % 8])
                  .size();
    });
    u.ancestry_ns = per_call_ns(
        cheap, [&] { sink += c.classes().ancestry("Flight").size(); });
    dedisys::Constraint& ocl = c.constraints().find("SeatLimit");
    const ObjectId flight = d.flights.front();
    u.ocl_ns = per_call_ns(cheap, [&] {
      dedisys::ConstraintValidationContext ctx(node.accessor(), node.id(),
                                               dedisys::TxId{});
      ctx.set_context_object(flight);
      ocl_ok = ocl.validate(ctx) && ocl_ok;
    });
    u.multicast_ns = per_call_ns(hops, [&] {
      sink += c.gc().multicast(node.id(), rt.nodes(), [](dedisys::NodeId) {});
    });
  }
  const dedisys::NodeId peer = c.node(1).id();
  u.run_on_ns = per_call_ns(hops, [&] { rt.run_on(peer, [] {}); });
  if (!ocl_ok) problems.push_back("direct OCL check failed on a flight");
  if (sink == 0) problems.push_back("direct module calls returned nothing");
  return u;
}

/// The spans of one request, children after their parent.
constexpr std::size_t kSpanKinds = 6;
constexpr const char* kSpanNames[kSpanKinds] = {
    "request",           "tx.begin",
    "middleware.invoke", "middleware.server_chain",
    "middleware.dispatch", "tx.commit"};
constexpr int kSpanDepth[kSpanKinds] = {0, 1, 1, 2, 3, 1};

struct SpanTimes {
  std::array<std::int64_t, kSpanKinds> start;
  std::array<std::int64_t, kSpanKinds> dur;
  std::array<std::int64_t, kSpanKinds> self;
};

SpanTimes span_times(const RequestSpans& s) {
  SpanTimes t{};
  t.start = {s.start, s.start, s.begin_end, s.chain_start, s.dispatch_start,
             s.invoke_end};
  t.dur = {s.end - s.start,
           s.begin_end - s.start,
           s.invoke_end - s.begin_end,
           s.chain_end - s.chain_start,
           s.dispatch_end - s.dispatch_start,
           s.end - s.invoke_end};
  t.self = {t.dur[0] - t.dur[1] - t.dur[2] - t.dur[5], t.dur[1],
            t.dur[2] - t.dur[3], t.dur[3] - t.dur[4], t.dur[4], t.dur[5]};
  return t;
}

/// The per-layer time figures taken from the spans.
enum Layer : std::size_t {
  kClient,      ///< invoke minus the server chain
  kChainPre,    ///< monitor entry to the last interceptor
  kDispatch,    ///< the last interceptor around chain.proceed
  kChainPost,   ///< the last interceptor's return to the monitor exit
  kBegin,
  kCommit,
  kKernelWait,
  kLayerCount,
};

/// Layer times of the committed traced requests: each span's durations
/// per request kind (for the printed table) and running sums of the
/// per-layer figures.  Requests are folded in as each phase ends, so the
/// raw records of only one phase are held at a time.
struct SpanStats {
  std::array<std::array<std::vector<std::uint32_t>, kSpanKinds>, 2> dur;
  std::array<std::array<double, kSpanKinds>, 2> self_sum{};
  std::array<double, kLayerCount> layer_sum{};
  double requests = 0;
  bool incomplete = false;  ///< a committed request missed a hook

  void add(const RequestSpans& s) {
    if (!s.ok) return;
    if (!s.complete()) {
      incomplete = true;
      return;
    }
    const SpanTimes t = span_times(s);
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      dur[s.write][k].push_back(
          static_cast<std::uint32_t>(std::min<std::int64_t>(
              t.dur[k], std::numeric_limits<std::uint32_t>::max())));
      self_sum[s.write][k] += static_cast<double>(t.self[k]);
    }
    layer_sum[kClient] += static_cast<double>(t.self[2]);
    layer_sum[kChainPre] +=
        static_cast<double>(s.dispatch_start - s.chain_start);
    layer_sum[kDispatch] += static_cast<double>(t.dur[4]);
    layer_sum[kChainPost] +=
        static_cast<double>(s.chain_end - s.dispatch_end);
    layer_sum[kBegin] += static_cast<double>(t.dur[1]);
    layer_sum[kCommit] += static_cast<double>(t.dur[5]);
    layer_sum[kKernelWait] += static_cast<double>(s.kernel_wait);
    requests += 1;
  }

  [[nodiscard]] double mean_ns(Layer l) const {
    return requests > 0 ? layer_sum[l] / requests : 0;
  }
};

// -- accumulation over rounds -------------------------------------------------

constexpr std::size_t kTraceFileRequests = 1'000;  ///< per client

struct Totals {
  std::vector<double> setup_s;
  std::vector<double> deploy_ms;
  std::vector<Window> windows;
  std::vector<double> rss_per_op;
  std::int64_t busy_ns = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<CycleStats> cycles;
  Counters counters{};
  SpanStats spans;
  std::vector<UnitCosts> units;
  std::vector<NamedSpan> main_spans;
  /// Round 0's first requests per client, written to the trace file.
  std::vector<std::vector<RequestSpans>> sample;

  void add(Phase& p) {
    for (Window& w : p.windows) windows.push_back(std::move(w));
    for (ClientLog& l : p.logs) {
      if (sample.size() < p.logs.size()) {
        const std::size_t n = std::min(l.spans.size(), kTraceFileRequests);
        sample.emplace_back(l.spans.begin(),
                            l.spans.begin() + static_cast<std::ptrdiff_t>(n));
      }
      for (const RequestSpans& s : l.spans) spans.add(s);
    }
    const std::uint64_t committed = p.attempted() - p.failed();
    attempted += p.attempted();
    failed += p.failed();
    busy_ns += p.busy_ns;
    if (committed > 0) {
      rss_per_op.push_back(static_cast<double>(p.rss_growth) /
                           static_cast<double>(committed));
    }
    cycles.insert(cycles.end(), p.cycles.begin(), p.cycles.end());
    add_to(counters, p.counters);
    main_spans.insert(main_spans.end(), p.spans.begin(), p.spans.end());
  }

  [[nodiscard]] double ops_per_s() const {
    return static_cast<double>(attempted - failed) /
           (static_cast<double>(busy_ns) / 1e9);
  }

  /// The `keep` fastest windows by committed ops per second, pooled.
  [[nodiscard]] Window fastest(std::size_t keep) const {
    std::vector<const Window*> order;
    for (const Window& w : windows) order.push_back(&w);
    std::sort(order.begin(), order.end(), [](const Window* a, const Window* b) {
      return a->ops_per_s() > b->ops_per_s();
    });
    Window pooled;
    for (std::size_t i = 0; i < std::min(keep, order.size()); ++i) {
      pooled.add(*order[i]);
    }
    return pooled;
  }
};

// -- output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// The traced requests' span table, per request kind.
void print_span_table(const SpanStats& stats) {
  for (const bool write : {false, true}) {
    auto dur = stats.dur[write];
    if (dur[0].empty()) continue;
    std::printf("spans of %s requests (ns):\n", write ? "write" : "read");
    std::printf("  %-30s %10s %10s %10s %10s %10s\n", "span", "calls", "mean",
                "self", "p50", "p99");
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      const double total = mean(dur[k]);
      const Summary sum = summarize(dur[k]);
      const std::string name =
          std::string(static_cast<std::size_t>(2 * kSpanDepth[k]), ' ') +
          kSpanNames[k];
      std::printf("  %-30s %10zu %10.0f %10.0f %10.0f %10.0f\n", name.c_str(),
                  sum.count, total,
                  stats.self_sum[write][k] / static_cast<double>(sum.count),
                  sum.p50, sum.p99);
    }
  }
}

/// Mean duration (ms) per main-thread span name, in first-seen order.
void print_main_spans(const std::vector<NamedSpan>& spans) {
  std::vector<std::string> names;
  for (const NamedSpan& s : spans) {
    if (std::find(names.begin(), names.end(), s.name) == names.end()) {
      names.push_back(s.name);
    }
  }
  std::printf("main-thread spans (ms):\n");
  std::printf("  %-30s %10s %10s %10s\n", "span", "calls", "mean", "p50");
  for (const std::string& name : names) {
    std::vector<double> ms;
    for (const NamedSpan& s : spans) {
      if (s.name == name) {
        ms.push_back(static_cast<double>(s.end - s.start) / 1e6);
      }
    }
    std::printf("  %-30s %10zu %10.3f %10.3f\n", name.c_str(), ms.size(),
                mean(ms), median(ms));
  }
}

/// Writes Chrome trace events (chrome://tracing, Perfetto): the main
/// thread's set-up, fault and reconcile spans of every round, and each
/// client's first requests of round 0 with their layer spans.
void write_trace_file(const std::string& path, const Totals& t) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const NamedSpan& s : t.main_spans) origin = std::min(origin, s.start);
  for (const auto& client : t.sample) {
    for (const RequestSpans& s : client) origin = std::min(origin, s.start);
  }
  bool first = true;
  auto event = [&](const std::string& name, int tid, std::int64_t start,
                   std::int64_t dur) {
    out << (first ? "" : ",\n") << "{\"name\":\"" << name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
        << ",\"ts\":" << number(static_cast<double>(start - origin) / 1e3)
        << ",\"dur\":" << number(static_cast<double>(dur) / 1e3) << "}";
    first = false;
  };
  out << "{\"traceEvents\":[\n";
  for (const NamedSpan& s : t.main_spans) {
    event(s.name, 0, s.start, s.end - s.start);
  }
  for (std::size_t c = 0; c < t.sample.size(); ++c) {
    for (const RequestSpans& s : t.sample[c]) {
      if (!s.complete()) continue;
      const SpanTimes times = span_times(s);
      for (std::size_t k = 0; k < kSpanKinds; ++k) {
        const std::string name = k == 0 ? (s.write ? "request.write"
                                                   : "request.read")
                                        : kSpanNames[k];
        event(name, static_cast<int>(c) + 1, times.start[k], times.dur[k]);
      }
    }
  }
  out << "\n]}\n";
}

// -- runs ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_dir;
};

double per(double count, double base) { return base > 0 ? count / base : 0; }

template <typename F>
double median_of(const std::vector<UnitCosts>& units, F&& field) {
  std::vector<double> v;
  for (const UnitCosts& u : units) v.push_back(field(u));
  return median(v);
}

void print_latencies(const char* label, const Summary& reads,
                     const Summary& writes) {
  std::printf("%s: %zu reads p25/p50/p75/p99 %.3f/%.3f/%.3f/%.3f us; "
              "%zu writes %.3f/%.3f/%.3f/%.3f us\n",
              label, reads.count, reads.p25 / 1e3, reads.p50 / 1e3,
              reads.p75 / 1e3, reads.p99 / 1e3, writes.count,
              writes.p25 / 1e3, writes.p50 / 1e3, writes.p75 / 1e3,
              writes.p99 / 1e3);
}

/// Throughput and the p99s cover every timed request of all rounds.  The
/// medians and setup_s leave out what the host slowed: the medians come
/// from the calm windows, the fastest 1/kCalmShare of all windows by
/// committed ops per second, and setup_s is the lower quartile of the
/// set-ups.  README.md ("Calm windows") gives the measurements behind
/// this split.
std::vector<Metric> end_to_end_metrics(Workload w, Totals& t) {
  const std::size_t calm_count =
      (t.windows.size() + kCalmShare - 1) / kCalmShare;
  Window calm = t.fastest(calm_count);
  Window all = t.fastest(t.windows.size());
  const Summary calm_reads = summarize(calm.read_ns);
  const Summary calm_writes = summarize(calm.write_ns);
  const Summary reads = summarize(all.read_ns);
  const Summary writes = summarize(all.write_ns);
  const double setup_s = quantile(t.setup_s, 1.0 / kCalmShare);
  std::vector<Metric> m = {
      {"setup_s", setup_s, "s"},
      {"ops_per_s", t.ops_per_s(), "1/s"},
      {"read_p50_us", calm_reads.p50 / 1e3, "us"},
      {"read_p99_us", reads.p99 / 1e3, "us"},
      {"write_p50_us", calm_writes.p50 / 1e3, "us"},
      {"write_p99_us", writes.p99 / 1e3, "us"},
      {"rss_bytes_per_op", median(t.rss_per_op), "B/op"},
  };
  std::printf("set-up: lower quartile %.4f s, median %.4f s of %zu\n",
              setup_s, median(t.setup_s), t.setup_s.size());
  std::printf("windows: %zu, %.1f ops/s; calm: the fastest %zu, %.1f ops/s\n",
              t.windows.size(), t.ops_per_s(), calm_count, calm.ops_per_s());
  print_latencies("all windows", reads, writes);
  print_latencies("calm windows", calm_reads, calm_writes);
  if (w == Workload::PartitionCycle) {
    std::vector<double> ms;
    for (const CycleStats& c : t.cycles) {
      ms.push_back(static_cast<double>(c.reconcile_ns) / 1e6);
    }
    std::printf("reconcile_ms %.4f ms (median of %zu cycles)\n", median(ms),
                ms.size());
  }
  return m;
}

/// The per-layer metrics of the traced phases, plus the tracing overhead
/// against the untraced replays.
std::vector<Metric> per_layer_metrics(Totals& traced, const Totals& replay,
                                      std::vector<std::string>& problems) {
  const SpanStats& spans = traced.spans;
  if (spans.incomplete) {
    problems.push_back("a traced request is missing hook timestamps");
  }
  const Counters& k = traced.counters;
  const double ops = static_cast<double>(traced.attempted);
  auto per_op = [&](Counter c) { return per(static_cast<double>(k[c]), ops); };
  const double cycles = static_cast<double>(traced.cycles.size());
  double reevaluated = 0, conflicts = 0, rows = 0, csim = 0, rsim = 0;
  for (const CycleStats& c : traced.cycles) {
    reevaluated += static_cast<double>(c.reevaluated);
    conflicts += static_cast<double>(c.conflicts);
    rows += static_cast<double>(c.threat_rows);
    csim += c.constraint_sim_ms;
    rsim += c.replica_sim_ms;
  }
  const auto& u = traced.units;
  std::vector<Metric> m = {
      {"middleware.client_ns", spans.mean_ns(kClient), "ns"},
      {"middleware.chain_pre_ns", spans.mean_ns(kChainPre), "ns"},
      {"middleware.dispatch_ns", spans.mean_ns(kDispatch), "ns"},
      {"middleware.chain_post_ns", spans.mean_ns(kChainPost), "ns"},
      {"tx.begin_ns", spans.mean_ns(kBegin), "ns"},
      {"tx.commit_ns", spans.mean_ns(kCommit), "ns"},
      {"tx.aborts_per_op", per_op(kAborts), "1/op"},
      {"constraints.lookups_per_op", per_op(kLookups), "1/op"},
      {"constraints.lookup_hit_ratio",
       per(static_cast<double>(k[kLookupHits]),
           static_cast<double>(k[kLookups])),
       "ratio"},
      {"constraints.lookup_ns",
       median_of(u, [](const UnitCosts& x) { return x.lookup_ns; }), "ns"},
      {"objects.ancestry_ns",
       median_of(u, [](const UnitCosts& x) { return x.ancestry_ns; }), "ns"},
      {"constraints.validations_per_op", per_op(kValidations), "1/op"},
      {"constraints.skipped_per_op", per_op(kSkipped), "1/op"},
      {"ocl.check_ns",
       median_of(u, [](const UnitCosts& x) { return x.ocl_ns; }), "ns"},
      {"constraints.threats_per_op", per_op(kThreats), "1/op"},
      {"constraints.reevaluated", per(reevaluated, cycles), "1/cycle"},
      {"validation.memo_hits", per_op(kMemoHits), "1/op"},
      {"replication.propagated_per_op", per_op(kPropagated), "1/op"},
      {"replication.applied_per_op", per_op(kApplied), "1/op"},
      {"replication.history_per_op", per_op(kHistory), "1/op"},
      {"replication.conflicts", per(conflicts, cycles), "1/cycle"},
      {"gcs.multicasts_per_op", per_op(kMulticasts), "1/op"},
      {"gcs.multicast_ns",
       median_of(u, [](const UnitCosts& x) { return x.multicast_ns; }), "ns"},
      {"runtime.run_on_ns",
       median_of(u, [](const UnitCosts& x) { return x.run_on_ns; }), "ns"},
      {"runtime.kernel_wait_ns", spans.mean_ns(kKernelWait), "ns"},
      {"persist.writes_per_op", per_op(kDbWrites), "1/op"},
      {"persist.reads_per_op", per_op(kDbReads), "1/op"},
      {"persist.threat_rows", per(rows, cycles), "1/cycle"},
      {"analysis.deploy_ms", median(traced.deploy_ms), "ms"},
      {"tracing.ops_ratio", traced.ops_per_s() / replay.ops_per_s(), "ratio"},
  };
  // Simulated reconciliation times: deterministic, and zero on the mixes,
  // so they are printed for the table but left out of the result line.
  std::printf("simulated reconciliation per cycle: constraints %.3f sim_ms, "
              "replicas %.3f sim_ms\n",
              per(csim, cycles), per(rsim, cycles));
  std::printf("traced %.1f ops/s, untraced replay %.1f ops/s\n",
              traced.ops_per_s(), replay.ops_per_s());
  return m;
}

void print_round(std::size_t round, std::int64_t setup_ns, const Phase& p) {
  std::printf("round %zu: setup %.4f s, %.1f ops/s\n", round,
              static_cast<double>(setup_ns) / 1e9,
              static_cast<double>(p.attempted() - p.failed()) /
                  (static_cast<double>(p.busy_ns) / 1e9));
}

/// Tracing must not perturb the simulation: same clock, same counts.
void compare_sim(const Phase& traced, const Phase& replay,
                 std::vector<std::string>& problems) {
  if (traced.sim_end != replay.sim_end) {
    problems.push_back("traced and untraced runs end on different sim "
                       "clocks: " + std::to_string(traced.sim_end) + " vs " +
                       std::to_string(replay.sim_end));
  }
  if (traced.counters != replay.counters) {
    problems.push_back("traced and untraced runs differ in layer counts");
  }
  bool same_cycles = traced.cycles.size() == replay.cycles.size();
  for (std::size_t i = 0; same_cycles && i < traced.cycles.size(); ++i) {
    const CycleStats& a = traced.cycles[i];
    const CycleStats& b = replay.cycles[i];
    same_cycles = a.reevaluated == b.reevaluated &&
                  a.conflicts == b.conflicts &&
                  a.threat_rows == b.threat_rows &&
                  a.constraint_sim_ms == b.constraint_sim_ms &&
                  a.replica_sim_ms == b.replica_sim_ms;
  }
  if (!same_cycles) {
    problems.push_back("traced and untraced runs differ in reconciliation");
  }
}

int run(const Args& a, Workload w) {
  std::vector<std::string> problems;
  Totals main;    // untraced rounds (--trace 0) or traced phases (--trace 1)
  Totals replay;  // --trace 1: the untraced replays
  const auto slice = static_cast<std::int64_t>(
      a.seconds * 1e9 / static_cast<double>(kRounds * (a.trace ? 2 : 1)));
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d rounds=%zu\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, kRounds);

  for (std::size_t round = 0; round < kRounds; ++round) {
    const Budget budget{slice, {}};
    Deployment d = set_up_warm(w, a.trace, a.seed, problems);
    main.setup_s.push_back(static_cast<double>(d.setup_ns) / 1e9);
    main.deploy_ms.push_back(d.deploy_ms);
    if (a.trace) {
      main.main_spans.insert(main.main_spans.end(), d.spans.begin(),
                             d.spans.end());
    }
    Phase p = a.trace ? run_phase<true>(d, w, a.seed, round, budget, problems)
                      : run_phase<false>(d, w, a.seed, round, budget, problems);
    if (w != Workload::PartitionCycle) check_mix(d, p, problems);
    if (a.trace) main.units.push_back(time_unit_costs(d, problems));
    tear_down(d);
    if (a.trace) {
      Budget same;
      for (const ClientLog& l : p.logs) same.ops.push_back(l.attempted);
      Deployment u = set_up_warm(w, false, a.seed, problems);
      replay.setup_s.push_back(static_cast<double>(u.setup_ns) / 1e9);
      Phase r = run_phase<false>(u, w, a.seed, round, same, problems);
      if (w != Workload::PartitionCycle) check_mix(u, r, problems);
      if (w != Workload::ThreadedMix) compare_sim(p, r, problems);
      tear_down(u);
      replay.add(r);
    }
    print_round(round, d.setup_ns, p);
    main.add(p);
  }

  std::vector<Metric> metrics;
  if (!a.trace) {
    metrics = end_to_end_metrics(w, main);
    print_metrics("end-to-end (untraced):", metrics);
  } else {
    print_span_table(main.spans);
    print_main_spans(main.main_spans);
    metrics = per_layer_metrics(main, replay, problems);
    print_metrics("per-layer (traced):", metrics);
    if (!a.trace_dir.empty()) {
      const std::string path =
          a.trace_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) +
          ".json";
      write_trace_file(path, main);
      std::printf("trace: %s\n", path.c_str());
    }
  }
  const std::uint64_t attempted = main.attempted + replay.attempted;
  const std::uint64_t failed = main.failed + replay.failed;
  std::printf("attempted %llu, failed %llu (share %.6f)\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              per(static_cast<double>(failed), static_cast<double>(attempted)));
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) problems.push_back(m.name + " is not finite");
  }
  for (const std::string& p : problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  if (problems.empty()) std::printf("checks: all passed\n");
  print_result(problems.empty(), attempted, failed, metrics);
  std::fflush(stdout);
  return problems.empty() ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload healthy_mix|threaded_mix|"
               "partition_cycle --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR]\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      a.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-dir") {
      a.trace_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || !have_trace || !(a.seconds > 0) ||
      a.seconds > 3600) {
    return usage();
  }
  Workload w;
  if (a.workload == "healthy_mix") {
    w = Workload::HealthyMix;
  } else if (a.workload == "threaded_mix") {
    w = Workload::ThreadedMix;
  } else if (a.workload == "partition_cycle") {
    w = Workload::PartitionCycle;
  } else {
    return usage();
  }
  return run(a, w);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
