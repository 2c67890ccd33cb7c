#include "shard/front_door.h"

#include <algorithm>
#include <utility>

#include "middleware/cluster.h"
#include "middleware/node.h"
#include "tx/tx_manager.h"
#include "util/errors.h"

namespace dedisys::shard {

void FrontDoor::ShardStats::add(const ShardStats& o) {
  submitted += o.submitted;
  admitted += o.admitted;
  applied += o.applied;
  committed += o.committed;
  aborted += o.aborted;
  forwarded += o.forwarded;
  batches += o.batches;
  evicted += o.evicted;
  shed_queue_full += o.shed_queue_full;
  shed_fee += o.shed_fee;
  shed_unavailable += o.shed_unavailable;
  shed_bad_request += o.shed_bad_request;
  depth += o.depth;
  max_depth = std::max(max_depth, o.max_depth);
}

FrontDoor::FrontDoor(Cluster& cluster, ShardMap& map, ShardPolicy policy)
    : cluster_(&cluster),
      map_(&map),
      policy_(policy),
      queues_(map.shard_count()),
      stats_(map.shard_count()) {
  if (policy_.queue_capacity == 0) policy_.queue_capacity = 1;
  if (policy_.batch_size == 0) policy_.batch_size = 1;
  if (policy_.base_fee == 0) policy_.base_fee = 1;
}

bool FrontDoor::ranks_before(const Entry& a, const Entry& b) {
  if (a.request.priority != b.request.priority) {
    return a.request.priority < b.request.priority;  // High=0 ranks first
  }
  if (a.fee != b.fee) return a.fee > b.fee;
  return a.ticket < b.ticket;
}

std::uint64_t FrontDoor::required_fee_at(std::size_t depth) const {
  // TxQ-style escalation: flat below the threshold depth, then the
  // required fee grows with the square of the (1-based) depth relative
  // to the threshold — outbidding a deep backlog gets expensive fast.
  const auto threshold = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             static_cast<double>(policy_.queue_capacity) *
             policy_.escalation_threshold));
  if (depth < threshold) return policy_.base_fee;
  const std::uint64_t d = depth + 1;
  return policy_.base_fee * d * d /
         static_cast<std::uint64_t>(threshold * threshold);
}

NodeId FrontDoor::current_target(ShardId shard) const {
  const std::vector<NodeId>& group = map_->nodes_of(shard);
  Runtime& rt = cluster_->runtime();
  for (NodeId n : group) {
    // A crashed node has an empty membership set; a partitioned-but-alive
    // one at least contains itself.
    if (!rt.membership_set(n).empty()) return n;
  }
  return group.front();
}

void FrontDoor::shed(ShardId shard, ShedReason reason,
                     const Request& request) {
  ShardStats& s = stats_[shard];
  switch (reason) {
    case ShedReason::QueueFull: ++s.shed_queue_full; break;
    case ShedReason::FeeBelowRequired: ++s.shed_fee; break;
    case ShedReason::ShardUnavailable: ++s.shed_unavailable; break;
    case ShedReason::BadRequest: ++s.shed_bad_request; break;
    case ShedReason::None: break;
  }
  obs::Observability& obs = cluster_->obs();
  if (obs.enabled()) {
    obs.event(cluster_->runtime().now(), obs::TraceEventKind::AdmissionShed,
              request.via.value_or(map_->home_of(shard)), request.target, {},
              "admission",
              std::string("shard=") + std::to_string(shard) +
                  " reason=" + to_string(reason) +
                  " priority=" + to_string(request.priority));
  }
}

Submission FrontDoor::submit(Request request) {
  // Routing reads the shared class registry and directory, and the queues
  // and counters are shared by every client thread.
  Runtime::Section section(cluster_->runtime());
  Submission out;

  // -- routing ----------------------------------------------------------
  switch (request.op) {
    case RequestOp::Create:
      if (!cluster_->classes().contains(request.class_name)) {
        out.shard = map_->shard_of_key(request.client);
        shed(out.shard, ShedReason::BadRequest, request);
        ++stats_[out.shard].submitted;
        out.reason = ShedReason::BadRequest;
        return out;
      }
      out.shard = map_->shard_of_key(request.client);
      break;
    case RequestOp::Invoke:
    case RequestOp::Destroy:
      if (!cluster_->directory()->contains(request.target)) {
        out.shard = map_->shard_of_key(request.client);
        shed(out.shard, ShedReason::BadRequest, request);
        ++stats_[out.shard].submitted;
        out.reason = ShedReason::BadRequest;
        return out;
      }
      out.shard = map_->shard_of(request.target);
      break;
  }
  ShardStats& stats = stats_[out.shard];
  ++stats.submitted;

  // -- forward-or-redirect ----------------------------------------------
  // A request addressed to a node outside the owning shard's replica
  // group is forwarded to the shard home: one charged point-to-point hop,
  // same verdict as a directly-routed request.
  if (request.via && !map_->owns(out.shard, *request.via)) {
    out.forwarded = true;
    ++stats.forwarded;
    cluster_->runtime().charge_rpc(*request.via, map_->home_of(out.shard));
    obs::Observability& obs = cluster_->obs();
    if (obs.enabled()) {
      obs.event(cluster_->runtime().now(),
                obs::TraceEventKind::AdmissionForward, *request.via,
                request.target, {}, "admission",
                "shard=" + std::to_string(out.shard) + " home=" +
                    to_string(map_->home_of(out.shard)));
    }
  }

  // -- fee escalation ----------------------------------------------------
  std::vector<Entry>& queue = queues_[out.shard];
  out.required_fee = required_fee_at(queue.size());
  const std::uint64_t offered =
      request.fee == 0 ? policy_.base_fee : request.fee;
  if (offered < out.required_fee) {
    shed(out.shard, ShedReason::FeeBelowRequired, request);
    out.reason = ShedReason::FeeBelowRequired;
    out.queue_depth = queue.size();
    return out;
  }

  Entry entry;
  entry.fee = offered;
  entry.ticket = next_ticket_++;
  entry.submitted_at = cluster_->runtime().now();
  entry.request = std::move(request);

  // -- bounded queue: evict or shed --------------------------------------
  if (queue.size() >= policy_.queue_capacity) {
    Entry& worst = queue.back();
    if (!ranks_before(entry, worst)) {
      shed(out.shard, ShedReason::QueueFull, entry.request);
      out.reason = ShedReason::QueueFull;
      out.queue_depth = queue.size();
      return out;
    }
    // The displaced ticket was admitted earlier; its client learns of the
    // eviction through a QueueFull outcome.
    Outcome evicted;
    evicted.ticket = worst.ticket;
    evicted.shard = out.shard;
    evicted.shed = ShedReason::QueueFull;
    evicted.submitted_at = worst.submitted_at;
    evicted.completed_at = cluster_->runtime().now();
    ++stats.evicted;
    shed(out.shard, ShedReason::QueueFull, worst.request);
    queue.pop_back();
    deliver(evicted);
  }

  const auto at = std::upper_bound(
      queue.begin(), queue.end(), entry,
      [](const Entry& a, const Entry& b) { return ranks_before(a, b); });
  queue.insert(at, std::move(entry));
  ++stats.admitted;
  stats.depth = queue.size();
  stats.max_depth = std::max(stats.max_depth, queue.size());

  out.status = SubmissionStatus::Queued;
  out.ticket = next_ticket_ - 1;
  out.queue_depth = queue.size();
  return out;
}

Outcome FrontDoor::apply_one(ShardId shard, Entry entry) {
  ShardStats& stats = stats_[shard];
  Outcome out;
  out.ticket = entry.ticket;
  out.shard = shard;
  out.submitted_at = entry.submitted_at;
  ++stats.applied;

  Runtime& rt = cluster_->runtime();
  const Request& req = entry.request;

  // Candidate kernels: the shard's replica group, home first, skipping
  // nodes that are down.  An ObjectUnreachable from one candidate (e.g. a
  // minority-side node refusing the write) falls through to the next.
  std::vector<NodeId> candidates;
  for (NodeId n : map_->nodes_of(shard)) {
    if (!rt.membership_set(n).empty()) candidates.push_back(n);
  }
  if (candidates.empty()) {
    out.shed = ShedReason::ShardUnavailable;
    ++stats.shed_unavailable;
    ++stats.aborted;
    out.completed_at = rt.now();
    deliver(out);
    return out;
  }

  auto run = [&](DedisysNode& kernel, TxId tx) {
    switch (req.op) {
      case RequestOp::Create:
        out.created = kernel.create(tx, req.class_name, req.application,
                                    map_->nodes_of(shard));
        map_->assign(out.created, shard);
        break;
      case RequestOp::Invoke:
        out.result = kernel.invoke(tx, req.target, req.method, req.args);
        break;
      case RequestOp::Destroy:
        kernel.destroy(tx, req.target);
        map_->forget(req.target);
        break;
    }
  };

  bool unreachable_everywhere = true;
  for (NodeId n : candidates) {
    DedisysNode* kernel = cluster_->node_by_id(n);
    if (kernel == nullptr) continue;
    try {
      if (req.tx) {
        // Caller-owned transaction: apply only — commit/abort is the
        // caller's 2PC decision, possibly spanning several shards.
        run(*kernel, *req.tx);
      } else if (policy_.transactional) {
        TxScope tx(cluster_->tx());
        run(*kernel, tx.id());
        tx.commit();
      } else {
        run(*kernel, TxId{});
      }
      out.committed = true;
      unreachable_everywhere = false;
      break;
    } catch (const ObjectUnreachable& e) {
      out.error = e.what();  // try the next replica of the group
    } catch (const DedisysError& e) {
      out.error = e.what();  // aborted/violated: definitive, do not retry
      unreachable_everywhere = false;
      break;
    }
  }
  if (out.committed) {
    ++stats.committed;
  } else {
    ++stats.aborted;
    if (unreachable_everywhere) {
      out.shed = ShedReason::ShardUnavailable;
      ++stats.shed_unavailable;
    }
  }
  out.completed_at = rt.now();
  obs::Observability& obs = cluster_->obs();
  if (obs.enabled()) {
    obs.latency("frontdoor.queue", out.completed_at - out.submitted_at);
  }
  deliver(out);
  return out;
}

std::size_t FrontDoor::pump() {
  Runtime::Section section(cluster_->runtime());
  std::size_t applied = 0;
  for (ShardId shard = 0; shard < queues_.size(); ++shard) {
    std::vector<Entry>& queue = queues_[shard];
    if (queue.empty()) continue;
    ShardStats& stats = stats_[shard];
    ++stats.batches;
    // One scheduling overhead per batch, amortized over its requests
    // (NetworkOPs-style batching).
    cluster_->runtime().charge(policy_.batch_overhead_us);
    const std::size_t count = std::min(policy_.batch_size, queue.size());
    // Take the whole batch up front: applying a request can recursively
    // observe the queue (outcome sinks submitting follow-ups).
    std::vector<Entry> batch(std::make_move_iterator(queue.begin()),
                             std::make_move_iterator(queue.begin() + count));
    queue.erase(queue.begin(), queue.begin() + count);
    stats.depth = queue.size();
    for (Entry& entry : batch) {
      apply_one(shard, std::move(entry));
      ++applied;
    }
  }
  return applied;
}

std::size_t FrontDoor::drain() {
  std::size_t total = 0;
  for (std::size_t n = pump(); n > 0; n = pump()) total += n;
  return total;
}

FrontDoor::ShardStats FrontDoor::totals() const {
  ShardStats out;
  for (const ShardStats& s : stats_) out.add(s);
  return out;
}

}  // namespace dedisys::shard
