#ifndef MANIRANK_SERVE_SCHEDULER_H_
#define MANIRANK_SERVE_SCHEDULER_H_

/// \file
/// The ServeExecutor's request scheduling as a pure data structure: no
/// sockets, no threads, no clock. The executor (serve/executor.h) calls
/// it under its one scheduler lock; the tests drive it directly.
///
/// ## Ordering
///
/// Requests of one connection are admitted in arrival order and wired
/// into a dependency graph: requests addressing the same table form a
/// serial chain, requests addressing different tables commute, and
/// barriers (namespace verbs, SNAPSHOT, REPLICATE, unparseable lines —
/// see ClassifyRequest in serve/protocol.h) wait for every predecessor
/// and hold back every successor. Completions arrive in whatever order
/// the workers produce; Complete sequences the responses back into
/// request order, so the response stream is bit-identical to the
/// synchronous dispatcher's.
///
/// ## Fairness
///
/// Dependency-free requests wait on ONE weighted-fair-queuing heap keyed
/// by per-table virtual start times: a draining verb (RUN / FLUSH) bills
/// kDrainWeight slots to its table's lane, a compute verb (EVAL / SELECT,
/// which may run a consensus method on a cold result cache)
/// kComputeWeight, a light verb one. A lane idle past the virtual clock
/// snaps forward to it, so a light table's fresh request sorts ahead of a
/// hot table's already-billed backlog, where arrival-order FIFO would
/// queue it behind every entry. Side jobs (replication handshakes,
/// snapshot-policy passes) ride the same heap, stamped at the current
/// virtual time and billed to no lane.
///
/// ## Parking
///
/// A draining request whose table is mid-fold can be parked instead of
/// queued; releasing the table's parked requests (or all of them, at
/// shutdown) queues them in parking order.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/protocol.h"

namespace manirank::serve {

/// Not thread-safe: every call, and every field of Connection, is
/// guarded by the caller's lock.
class RequestScheduler {
 public:
  struct Request;

  /// Per-connection ordering state. The front end's connection type
  /// derives from it, so a Request keeps its connection alive.
  struct Connection {
    uint64_t next_seq = 0;   ///< next request sequence number to assign
    uint64_t next_send = 0;  ///< next sequence number owed to the wire
    /// Bytes of admitted request lines not yet completed (the front
    /// end's request-side backpressure budget).
    size_t queued_line_bytes = 0;
    /// Finished responses waiting for an earlier sequence number.
    std::map<uint64_t, std::string> finished_out_of_order;
    /// Every unfinished request (barrier dependencies).
    std::vector<Request*> unfinished;
    /// Last unfinished request per table: the tail of each serial chain.
    std::unordered_map<std::string, Request*> last_by_table;
    Request* last_barrier = nullptr;

    /// Admitted requests whose responses are not yet sequenced.
    uint64_t in_flight() const { return next_seq - next_send; }
    /// Every admitted request has completed and been sequenced.
    bool idle() const {
      return unfinished.empty() && finished_out_of_order.empty();
    }
  };

  /// One admitted request. Owned by the scheduler from Admit until
  /// Complete destroys it.
  struct Request {
    std::shared_ptr<Connection> conn;
    uint64_t seq = 0;
    /// Global arrival stamp: FIFO tie-break within one virtual slot.
    uint64_t arrival = 0;
    std::string line;
    std::string table;
    bool barrier = false;
    bool draining = false;
    bool compute = false;
    /// Non-empty: answer with this instead of executing the line.
    std::string synthetic_response;
    /// Unfinished predecessors; the request is runnable at zero.
    size_t deps = 0;
    std::vector<Request*> dependents;
  };

  /// Ready-heap entry, a min-heap on (vstart, arrival): a request, or
  /// (node == nullptr) a side job.
  struct Entry {
    uint64_t vstart = 0;
    uint64_t arrival = 0;
    Request* node = nullptr;
    std::function<void()> job;
  };

  /// Registers the next request of `conn` and wires its dependency
  /// edges. The caller dispatches it (Enqueue, Park, or executes it)
  /// once `deps` is zero — now, or when Complete returns it.
  Request* Admit(std::shared_ptr<Connection> conn, RequestClass cls,
                 std::string line, std::string synthetic_response = {});

  /// Stamps the request's WFQ virtual start, bills its lane, and pushes
  /// it onto the ready heap.
  void Enqueue(Request* node);
  /// Pushes a side job stamped at the current virtual time.
  void EnqueueJob(std::function<void()> job);
  bool empty() const { return ready_.empty(); }
  /// Pops the fairest entry (requires !empty()) and advances the
  /// virtual clock to its start.
  Entry Pop();

  void Park(Request* node);
  /// Enqueues the requests parked on `table`; returns how many.
  size_t ReleaseParked(const std::string& table);
  /// Enqueues every parked request; returns how many.
  size_t ReleaseAll();

  /// Retires `node`: unlinks it from its connection, appends every
  /// response whose turn has come to `*out` (nullptr discards them:
  /// the peer is gone), destroys the node, and returns the dependents
  /// that became dependency-free.
  std::vector<Request*> Complete(Request* node, std::string response,
                                 std::string* out);

 private:
  size_t EnqueueAll(std::vector<Request*> nodes);

  std::unordered_map<Request*, std::unique_ptr<Request>> live_nodes_;
  std::vector<Entry> ready_;
  uint64_t next_arrival_ = 0;
  /// WFQ clock: the largest virtual start time ever popped.
  uint64_t virtual_time_ = 0;
  /// Per-table virtual finish times ("" = the barrier lane).
  std::unordered_map<std::string, uint64_t> table_vfinish_;
  std::unordered_map<std::string, std::vector<Request*>> parked_;
};

}  // namespace manirank::serve

#endif  // MANIRANK_SERVE_SCHEDULER_H_
