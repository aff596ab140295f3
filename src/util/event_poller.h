#ifndef MANIRANK_UTIL_EVENT_POLLER_H_
#define MANIRANK_UTIL_EVENT_POLLER_H_

/// \file
/// Readiness notification for the serving event loops
/// (serve/executor.cc): a thin wrapper over Linux epoll(7).
///
/// Registration is persistent and EDGE-TRIGGERED (EPOLLET): Wait() costs
/// O(ready), not O(registered), so 10k idle connections are free. The
/// consumer MUST be written edge-correct — drain every readable fd to
/// EAGAIN (or remember that it still has data) before the next Wait,
/// because a level is reported only once per edge. A PolledEvent means
/// "this fd BECAME ready (or was ready at registration)"; the consumer
/// owns per-fd readiness state.
///
/// Thread safety: an EventPoller instance belongs to exactly one event
/// loop thread. Add/Remove/Wait must all be called from that thread;
/// cross-thread wakeup goes through a self-pipe registered like any
/// other fd (the executor's per-loop wake pipe).

#if defined(__linux__)

#include <vector>

namespace manirank {

/// One readiness edge. `data` is the pointer registered with Add;
/// `error` reports EPOLLERR/EPOLLHUP (the consumer should attempt the
/// read anyway — EOF/ECONNRESET surfaces there).
struct PolledEvent {
  void* data = nullptr;
  bool readable = false;
  bool writable = false;
  bool error = false;
};

class EventPoller {
 public:
  EventPoller() = default;
  ~EventPoller();
  EventPoller(const EventPoller&) = delete;
  EventPoller& operator=(const EventPoller&) = delete;

  /// Creates the epoll instance. Returns false with errno set by
  /// epoll_create1.
  bool Open();

  /// Registers `fd`, edge-triggered. `want_read`/`want_write` form the
  /// interest set; `data` is echoed back in every PolledEvent for this
  /// fd. An fd that is already ready at registration time is reported by
  /// the next Wait. Returns false on registration failure.
  bool Add(int fd, bool want_read, bool want_write, void* data);

  /// Deregisters `fd`. Must be called BEFORE the fd is closed.
  void Remove(int fd);

  /// Blocks up to `timeout_ms` (-1 = forever) and appends every ready
  /// event to `*events` (which is cleared first). Returns the number of
  /// events, 0 on timeout or EINTR, -1 on any other failure.
  int Wait(std::vector<PolledEvent>* events, int timeout_ms);

 private:
  int epfd_ = -1;
};

}  // namespace manirank

#endif  // defined(__linux__)

#endif  // MANIRANK_UTIL_EVENT_POLLER_H_
