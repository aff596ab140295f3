#ifndef MANIRANK_SERVE_EXECUTOR_H_
#define MANIRANK_SERVE_EXECUTOR_H_

/// \file
/// TCP front end for the multi-table serving layer: the async
/// ServeExecutor speaks the newline-delimited protocol of
/// serve/protocol.h over loopback TCP and shares one ContextManager
/// across every connection.
///
/// ## Why an executor
///
/// MANI-Rank consensus runs are seconds-long gate holds: a RUN first
/// drains the table's mutation backlog under the exclusive gate, then
/// runs the method under the shared gate. A server that executes each
/// connection's pipeline strictly serially lets one big request
/// head-of-line-block every request queued behind it on that connection
/// — even requests for completely unrelated tables.
///
/// The ServeExecutor splits the connection handler into
///
///  - N independent event loops (ServerOptions::io_threads, default
///    min(4, cores)). Each loop owns an edge-triggered epoll instance
///    (util/event_poller.h), its own SO_REUSEPORT listener so the
///    kernel shards accepted connections across loops,
///    and every connection the kernel hands it: a connection is pinned
///    to its loop for life, so all per-connection I/O state stays
///    single-writer (and TSan-clean) with no cross-loop fd migration.
///    Loops never execute requests, so accepts and every socket stay
///    live during the heaviest fold; and
///  - ServerOptions::workers worker threads owned by the executor. The
///    ready queue is ONE heap under the scheduler lock: a worker sleeps
///    on a condition variable until it is non-empty, pops the fairest
///    entry, unlocks and executes it through the per-connection
///    Dispatcher. Small non-draining per-table requests with no
///    in-flight predecessor (STATS, APPEND, REMOVE) skip the worker
///    handoff and execute inline on their loop — a read-mostly workload
///    then scales with the loop count instead of serializing on the
///    ready queue. Workers are plain threads, not ParallelFor workers,
///    so a kernel inside a request still fans out.
///
/// Scheduling — same-table chains, per-connection barriers, in-order
/// response sequencing, the weighted fair ready queue and parked
/// requests — lives in the socket-free RequestScheduler
/// (serve/scheduler.h), which this executor drives under its one
/// scheduler lock. The response stream is bit-identical to the
/// synchronous dispatcher's while the server-side work overlaps. Compute
/// verbs (EVAL / SELECT) are excluded from the loop-thread inline fast
/// path: a cold-cache consensus run (or SELECT's ILP fallback) always
/// executes on a worker, never on an event loop.
///
/// Draining verbs additionally consult the ContextManager's non-blocking
/// scheduling hooks: a RUN or FLUSH aimed at a table whose backlog is
/// mid-fold is parked and re-dispatched by the drain observer instead
/// of blocking a worker, so one table's exclusive mutation wave cannot
/// absorb every worker. (SNAPSHOT drains too, but runs as a
/// barrier — alone on its connection — so it never stacks workers.)
///
/// ## Backpressure
///
/// A connection stops being read while it has
/// max_inflight_per_connection parsed-but-unanswered requests, more than
/// max_buffered_response_bytes of unflushed response bytes, or more than
/// 32 MiB of parsed-but-unexecuted request lines (two maximum-size lines;
/// without it a client could pipeline 64 nearly-16 MiB APPENDs); the
/// kernel socket buffer then pushes back on the client the normal TCP
/// way. (The cap is soft: every complete line already read in the
/// current chunk is still scheduled.)
///
/// ## Accept-time resource exhaustion
///
/// Each loop holds one reserved emergency fd (/dev/null). On
/// EMFILE/ENFILE the loop closes it, accepts the pending connection into
/// the freed slot, answers "ERR unavailable: ..." and closes, then
/// reopens the reserve — a client sees a loud rejection instead of a
/// connect that hangs in the backlog until an fd frees.
///
/// ## Observability
///
/// Every loop keeps plain counters (connections accepted, requests served
/// and served-inline, bytes in/out, backpressure stalls, parked drains,
/// EMFILE rejections, replication sessions and bytes), written under the
/// scheduler lock. The METRICS verb is rare and runs with no executor
/// lock held, so it copies them under that lock once.
///
/// ## Shutdown
///
/// Shutdown() (and the destructor) stop accepting and reading, let every
/// in-flight request finish, flush its response, half-close each
/// connection (shutdown(SHUT_WR)) so the client actually receives the
/// tail of the stream, and join every event loop and worker. A client
/// that never closes its end after the half-close is given a bounded
/// linger (~1 s) and then dropped, so one idle or hostile connection
/// cannot hang the shutdown. The same flush-then-half-close discipline
/// answers an oversize request line: the client receives the ERR
/// response and an orderly EOF, never a connection reset.
///
/// ## Replication streams
///
/// With a durability layer attached, a REPLICATE request flips its
/// connection into a leader-side replication stream (serve/protocol.h
/// documents the wire format). The handshake (snapshot floor + committed
/// log prefix, read from the durable files by DurabilityManager::
/// TakeHandshake) is built on a worker; from then on the owning
/// event loop pumps newly committed log bytes into the ordinary response
/// buffer, so replication rides the same edge-triggered write path and
/// response-byte backpressure as every other connection. Pump triggers:
/// the drain observer (a finished fold is exactly when new committed
/// bytes exist) plus a bounded 200 ms poll tick while streams are live —
/// the tick also notices chain rotations (snapshot truncation, DROP),
/// which close the stream so the follower re-handshakes. Streams are
/// closed outright at shutdown; followers treat any EOF as "reconnect
/// and re-handshake".

/// The TCP front end (this executor and the follower client of
/// serve/replica.h, which includes this header for the gate) is built
/// where epoll exists. Elsewhere manirank_serve keeps its stdin and
/// --script modes.
#if defined(__linux__)
#define MANIRANK_SERVE_HAVE_SOCKETS 1
#endif

#ifdef MANIRANK_SERVE_HAVE_SOCKETS

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/context_manager.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"

namespace manirank::serve {

class DurabilityManager;

/// Longest admissible request line. Generous for big APPEND batches, but
/// a client streaming bytes with no newline must not grow server memory
/// without bound.
inline constexpr size_t kMaxRequestBytes = 16u << 20;

/// ServeExecutor knobs.
struct ServerOptions {
  /// Loopback port to bind; 0 asks the kernel for an ephemeral port
  /// (read it back via port() — this is how the tests and bench run).
  int port = 0;
  /// Executor worker threads; 0 = DefaultThreadCount() (at least 1).
  size_t workers = 0;
  /// Executor event-loop (I/O) threads; each owns its own epoll
  /// instance and SO_REUSEPORT listener. 0 = min(4, DefaultThreadCount()).
  size_t io_threads = 0;
  /// Parsed-but-unanswered requests per connection before the reader
  /// stops polling that socket.
  size_t max_inflight_per_connection = 64;
  /// Unflushed response bytes per connection before the same.
  size_t max_buffered_response_bytes = 4u << 20;
  /// Announce "listening on 127.0.0.1:<port>" to this stream (nullptr =
  /// quiet; serve_main passes stderr).
  std::ostream* log = nullptr;
  /// Optional durability layer (serve/durability.h), borrowed. Enables
  /// SNAPSHOT-POLICY on every connection, appends oplog_* tokens to
  /// METRICS, drives the time-based policy timer from event loop 0's
  /// poll timeout, and re-evaluates generation policies after each
  /// finished drain.
  DurabilityManager* durability = nullptr;
};

/// Async request pipeline: N sharded event loops + workers popping one
/// fair ready queue + per-connection in-order response queues. See the
/// file comment for the model. All public methods are safe to call from
/// one controlling thread (the usual Start / wait / Shutdown lifecycle);
/// the accessors are additionally safe from any thread while the
/// executor runs.
class ServeExecutor {
 public:
  explicit ServeExecutor(ContextManager* manager, ServerOptions options = {});
  ~ServeExecutor();
  ServeExecutor(const ServeExecutor&) = delete;
  ServeExecutor& operator=(const ServeExecutor&) = delete;

  /// Binds the SO_REUSEPORT listener group on 127.0.0.1:<port>,
  /// registers the drain observer, and starts the event loops and
  /// workers. On failure reports into `*error` and returns false.
  bool Start(std::string* error = nullptr);

  /// The bound port (after Start); useful with options.port == 0.
  int port() const { return port_; }

  /// Graceful shutdown (see file comment). Safe to call twice; the
  /// destructor calls it.
  void Shutdown();

  /// Event loops actually running (after Start).
  size_t io_loops() const { return io_loops_; }
  /// Requests whose responses were completed since Start: the sum of
  /// the loops' METRICS `served` counts (0 once Shutdown has run).
  uint64_t requests_served() const;

 private:
  struct Conn;
  struct IoLoop;
  using Request = RequestScheduler::Request;
  enum class ReadStatus { kDrained, kBudget, kBackpressured, kEof, kAborted };

  void LoopMain(IoLoop& loop);
  static void WakeLoop(IoLoop& loop);
  /// Loop-thread only: queue the connection for a service pass on its
  /// loop (deduplicated via Conn::in_service).
  static void QueueService(IoLoop& loop, const std::shared_ptr<Conn>& conn);
  void ServiceConn(IoLoop& loop, const std::shared_ptr<Conn>& conn);
  void AcceptReady(IoLoop& loop);
  /// EMFILE/ENFILE: burn the reserved emergency fd to accept, reject
  /// loudly, reopen the reserve. Returns false when no connection was
  /// accepted (empty backlog, or a timed retry was scheduled).
  bool RejectOverloadedAccept(IoLoop& loop);
  ReadStatus HandleReadable(IoLoop& loop, const std::shared_ptr<Conn>& conn);
  /// sched_mu_ held: the read-budget predicate (in-flight requests,
  /// unflushed response bytes, unexecuted request bytes).
  bool CanReadLocked(const Conn& conn) const;
  /// Classifies one request line, intercepts a REPLICATE handshake, and
  /// admits the rest. Returns a node the CALLER must execute inline
  /// (loop-thread fast path), or nullptr.
  Request* ScheduleLine(const std::shared_ptr<Conn>& conn, std::string&& line);
  /// sched_mu_ held: the one admit path — normal lines and the synthetic
  /// oversize / REPLICATE-conflict ERRs. Returns the node when the
  /// caller should execute it inline, else dispatches it (or leaves it
  /// to its predecessors) and returns nullptr.
  Request* AdmitLocked(const std::shared_ptr<Conn>& conn, RequestClass cls,
                       std::string line, std::string synthetic);
  /// sched_mu_ held: dispatch a dependency-free request (answer a
  /// synthetic, park it, or queue it for the workers).
  void DispatchLocked(Request* node);
  /// Worker-thread body: wait for the ready heap, pop the fairest entry,
  /// unlock, execute; exits once told to stop and the heap is empty.
  void WorkerMain();
  /// Executes one node's request (no executor lock held), completes it,
  /// and — on the worker path — flushes the response.
  void ExecuteNode(Request* node, bool inline_on_loop);
  /// sched_mu_ held: complete the request in the scheduler, dispatch
  /// the dependents it freed, count it, and (unless the caller IS the
  /// owning loop) queue the connection for service on its loop.
  void CompleteLocked(Request* node, std::string response, bool notify_loop);
  /// sched_mu_ held: add the connection to its loop's notify list
  /// (deduplicated) and wake the loop.
  void NotifyLoopLocked(const std::shared_ptr<Conn>& conn);
  void OnDrainFinished(const std::string& table);
  /// Queues one DurabilityManager::RunDuePolicies pass for the workers
  /// (takes sched_mu_), deduplicated: at most one pass is queued/running
  /// at a time (policy snapshots drain whole tables — stacking them would
  /// absorb every worker). The runner re-checks for newly due work after
  /// clearing the flag, so a deadline arriving mid-pass is never lost.
  void SchedulePolicyEval();
  /// Worker entry for a replication handshake: reads the snapshot
  /// floor + committed log prefix (TakeHandshake) and appends the header
  /// line plus both raw payloads to the connection's response buffer —
  /// the stream then continues via PumpReplication on the owning loop.
  void StartReplication(const std::shared_ptr<Conn>& conn);
  /// Loop-thread only: appends newly committed log bytes (bounded per
  /// pass, gated by the response-byte budget) to a live replication
  /// stream. Returns true when the connection was closed (chain
  /// rotation — the follower must re-handshake).
  bool PumpReplication(IoLoop& loop, const std::shared_ptr<Conn>& conn);
  /// Any-thread response flusher: two-buffer scheme, so the send()
  /// syscalls run under the connection's write lock only — never under
  /// the global scheduler lock. Lock order: write_mu before sched_mu_.
  void FlushConn(const std::shared_ptr<Conn>& conn);
  /// Loop-thread only: deregister, close, and forget a connection.
  void CloseConn(IoLoop& loop, const std::shared_ptr<Conn>& conn);
  /// One-line counter snapshot for the METRICS verb.
  std::string MetricsResponse() const;

  ContextManager* manager_;
  ServerOptions options_;
  int port_ = 0;
  bool started_ = false;
  std::atomic<bool> stopping_{false};
  size_t io_loops_ = 0;
  std::vector<std::unique_ptr<IoLoop>> loops_;
  std::vector<std::thread> workers_;

  /// One scheduling lock for parse-side (event loops) and completion-side
  /// (workers) bookkeeping, and for the per-loop counters. Scheduling
  /// operations are micro-sized compared to request execution, which
  /// never holds it — and response flushing happens under per-connection
  /// write locks, not this one.
  mutable std::mutex sched_mu_;
  /// Every unfinished request, the ready heap (the executor's only run
  /// queue) and the parked requests. Executing workers hold raw node
  /// pointers, so nodes die only in CompleteLocked (or teardown after the
  /// workers have drained).
  RequestScheduler sched_;
  /// Signalled under sched_mu_ when sched_ gains a ready entry or
  /// workers_stopping_ is set.
  std::condition_variable ready_cv_;
  /// Set by Shutdown after the loops are joined: the workers drain the
  /// ready heap, then exit.
  bool workers_stopping_ = false;
  /// One global parked-queue flush when shutdown begins (first loop to
  /// notice performs it).
  bool parked_flushed_ = false;
  /// Live replication streams (handshake pending or done), keyed by raw
  /// Conn pointer. Each loop queues its own streams for a pump pass every
  /// iteration; the drain observer notifies the streams of the folded
  /// table. Entries leave in CloseConn (or on a refused handshake).
  std::unordered_map<Conn*, std::shared_ptr<Conn>> repl_conns_;

  /// SchedulePolicyEval dedup flag (see its comment).
  std::atomic<bool> policy_eval_scheduled_{false};
};

}  // namespace manirank::serve

#endif  // MANIRANK_SERVE_HAVE_SOCKETS
#endif  // MANIRANK_SERVE_EXECUTOR_H_
