#include "serve/scheduler.h"

#include <algorithm>
#include <utility>

namespace manirank::serve {
namespace {

/// WFQ billing: one draining verb (RUN/FLUSH — seconds of gate-holding
/// work) costs this many virtual slots, a light verb costs one. A hot
/// table's parked-then-released drain backlog therefore advances its
/// lane's virtual finish time 8x faster than a light table's STATS
/// stream, and the light request sorts ahead of the backlog.
constexpr uint64_t kDrainWeight = 8;

/// Middle tier for the compute verbs (EVAL / SELECT): read-only — they
/// never hold the exclusive gate — but they run a consensus method (or
/// an ILP fallback) on a cold result cache, so they are billed heavier
/// than STATS/APPEND yet lighter than a drain.
constexpr uint64_t kComputeWeight = 4;

/// std::push_heap/pop_heap keep the smallest (vstart, arrival) in front.
bool ReadyLater(const RequestScheduler::Entry& a,
                const RequestScheduler::Entry& b) {
  return a.vstart > b.vstart ||
         (a.vstart == b.vstart && a.arrival > b.arrival);
}

}  // namespace

RequestScheduler::Request* RequestScheduler::Admit(
    std::shared_ptr<Connection> conn, RequestClass cls, std::string line,
    std::string synthetic_response) {
  auto owned = std::make_unique<Request>();
  Request* node = owned.get();
  node->seq = conn->next_seq++;
  node->arrival = next_arrival_++;
  node->line = std::move(line);
  conn->queued_line_bytes += node->line.size();
  node->table = std::move(cls.table);
  node->barrier = cls.barrier;
  node->draining = cls.draining;
  node->compute = cls.compute;
  node->synthetic_response = std::move(synthetic_response);
  live_nodes_.emplace(node, std::move(owned));
  const auto depend_on = [node](Request* pred) {
    if (pred != nullptr) {
      pred->dependents.push_back(node);
      ++node->deps;
    }
  };
  if (node->barrier) {
    // Orders against everything in flight on this connection, and (via
    // last_barrier) everything that arrives later.
    for (Request* pred : conn->unfinished) depend_on(pred);
    conn->last_barrier = node;
  } else {
    // Same-table requests form a serial chain (arrival order); the
    // barrier edge keeps namespace verbs totally ordered around them.
    // The two predecessors are necessarily distinct nodes: a barrier is
    // never registered in last_by_table.
    const auto it = conn->last_by_table.find(node->table);
    depend_on(it != conn->last_by_table.end() ? it->second : nullptr);
    depend_on(conn->last_barrier);
    conn->last_by_table[node->table] = node;
  }
  conn->unfinished.push_back(node);
  node->conn = std::move(conn);
  return node;
}

void RequestScheduler::Enqueue(Request* node) {
  // The request's virtual start is where its lane's previous request
  // finished, but never behind the global clock.
  uint64_t& vfinish =
      table_vfinish_[node->barrier ? std::string() : node->table];
  const uint64_t vstart = std::max(virtual_time_, vfinish);
  vfinish = vstart + (node->draining  ? kDrainWeight
                      : node->compute ? kComputeWeight
                                      : 1);
  ready_.push_back(Entry{vstart, node->arrival, node, {}});
  std::push_heap(ready_.begin(), ready_.end(), ReadyLater);
}

void RequestScheduler::EnqueueJob(std::function<void()> job) {
  ready_.push_back(Entry{virtual_time_, next_arrival_++, nullptr,
                         std::move(job)});
  std::push_heap(ready_.begin(), ready_.end(), ReadyLater);
}

RequestScheduler::Entry RequestScheduler::Pop() {
  std::pop_heap(ready_.begin(), ready_.end(), ReadyLater);
  Entry entry = std::move(ready_.back());
  ready_.pop_back();
  // Lanes that idled past the dispatched start snap forward on their
  // next enqueue.
  virtual_time_ = std::max(virtual_time_, entry.vstart);
  return entry;
}

void RequestScheduler::Park(Request* node) {
  parked_[node->table].push_back(node);
}

size_t RequestScheduler::ReleaseParked(const std::string& table) {
  const auto it = parked_.find(table);
  if (it == parked_.end()) return 0;
  std::vector<Request*> nodes = std::move(it->second);
  parked_.erase(it);
  return EnqueueAll(std::move(nodes));
}

size_t RequestScheduler::ReleaseAll() {
  size_t released = 0;
  for (auto& [table, nodes] : parked_) released += EnqueueAll(std::move(nodes));
  parked_.clear();
  return released;
}

size_t RequestScheduler::EnqueueAll(std::vector<Request*> nodes) {
  for (Request* node : nodes) Enqueue(node);
  return nodes.size();
}

std::vector<RequestScheduler::Request*> RequestScheduler::Complete(
    Request* node, std::string response, std::string* out) {
  Connection& conn = *node->conn;
  conn.queued_line_bytes -= node->line.size();
  if (conn.last_barrier == node) conn.last_barrier = nullptr;
  if (!node->barrier) {
    const auto it = conn.last_by_table.find(node->table);
    if (it != conn.last_by_table.end() && it->second == node) {
      conn.last_by_table.erase(it);
    }
  }
  conn.unfinished.erase(
      std::remove(conn.unfinished.begin(), conn.unfinished.end(), node),
      conn.unfinished.end());
  std::vector<Request*> ready;
  for (Request* dependent : node->dependents) {
    if (--dependent->deps == 0) ready.push_back(dependent);
  }
  if (out != nullptr) {
    // Completion order is whatever the workers produced; the wire order
    // is the request order. Append every response whose turn has come.
    conn.finished_out_of_order.emplace(node->seq, std::move(response));
    for (auto it = conn.finished_out_of_order.find(conn.next_send);
         it != conn.finished_out_of_order.end();
         it = conn.finished_out_of_order.find(conn.next_send)) {
      if (!it->second.empty()) {
        *out += it->second;
        *out += '\n';
      }
      conn.finished_out_of_order.erase(it);
      ++conn.next_send;
    }
  }
  live_nodes_.erase(node);  // destroys *node
  return ready;
}

}  // namespace manirank::serve
