#ifndef MANIRANK_UTIL_THREADING_H_
#define MANIRANK_UTIL_THREADING_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace manirank {

/// Number of worker threads used by ParallelFor. Defaults to
/// std::thread::hardware_concurrency(), overridable via the
/// MANIRANK_THREADS environment variable (0 or 1 disables parallelism).
/// Malformed values (non-numeric, trailing garbage, negative, overflow)
/// fall back to the hardware default; huge values are clamped to
/// kMaxThreads.
size_t DefaultThreadCount();

/// Upper bound enforced on MANIRANK_THREADS.
inline constexpr size_t kMaxThreads = 256;

/// Runs `body(begin, end, worker_index)` over a static partition of
/// [0, count) across `threads` workers. Blocks until all workers finish.
/// With threads <= 1 (or count small) the body runs inline on the caller.
///
/// Work is dispatched to a lazily-initialized persistent worker pool that
/// is shared process-wide and grows to the largest thread count requested;
/// after warmup no call constructs a std::thread. One partition always
/// runs inline on the calling thread. Nested ParallelFor calls (a body
/// that itself calls ParallelFor) run serially on the worker to avoid
/// pool starvation.
///
/// The body must be safe to run concurrently on disjoint ranges. If any
/// partition throws, the fan-out first quiesces and the first captured
/// exception is rethrown on the calling thread.
void ParallelFor(size_t count,
                 const std::function<void(size_t begin, size_t end,
                                          size_t worker)>& body,
                 size_t threads = 0);

/// Fixed-size pool of dedicated worker threads for long-running,
/// possibly-blocking jobs — the serving executor's request workers. The
/// same parked-on-a-condition-variable job-queue machinery as the
/// ParallelFor pool, but deliberately a separate set of threads: a
/// TaskPool job may block for seconds on a table gate or run a whole
/// consensus method, and its threads are NOT flagged as ParallelFor
/// workers, so a job that enters a parallel kernel still fans out across
/// the shared ParallelFor pool instead of serializing.
///
/// Thread safety: Submit may be called concurrently from any thread.
/// Jobs run in submission order across the pool (FIFO queue, no
/// per-thread affinity). Stop() (and the destructor) stop accepting new
/// jobs, run everything already queued to completion, and join the
/// threads; Submit after Stop is a no-op returning false.
class TaskPool {
 public:
  /// Spawns exactly `threads` workers (clamped to [1, kMaxThreads]).
  explicit TaskPool(size_t threads);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Enqueues one job. Returns false (dropping the job) after Stop.
  bool Submit(std::function<void()> job);

  /// Drains the queue, joins every worker, and rejects further Submits.
  /// Safe to call more than once; the destructor calls it.
  void Stop();

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> jobs_;
  std::vector<std::thread> threads_;
  bool stopping_ = false;
};

/// Number of persistent pool workers currently alive (diagnostics).
size_t PooledWorkerCount();

/// Total worker threads the pool has ever constructed. Tests use this to
/// prove that repeated parallel regions reuse workers instead of spawning
/// fresh threads per call.
uint64_t PooledThreadsCreated();

}  // namespace manirank

#endif  // MANIRANK_UTIL_THREADING_H_
