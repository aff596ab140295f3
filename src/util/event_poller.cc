#include "util/event_poller.h"

#if defined(__linux__)

#include <errno.h>
#include <sys/epoll.h>
#include <unistd.h>

namespace manirank {

EventPoller::~EventPoller() {
  if (epfd_ >= 0) ::close(epfd_);
}

bool EventPoller::Open() {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  return epfd_ >= 0;
}

bool EventPoller::Add(int fd, bool want_read, bool want_write, void* data) {
  if (epfd_ < 0 || fd < 0) return false;
  struct epoll_event ev = {};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u) |
              EPOLLET | EPOLLRDHUP;
  ev.data.ptr = data;
  return ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

void EventPoller::Remove(int fd) {
  // DEL needs no event argument on modern kernels but pass one for
  // pre-2.6.9 portability.
  struct epoll_event ev = {};
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &ev);
}

int EventPoller::Wait(std::vector<PolledEvent>* events, int timeout_ms) {
  events->clear();
  if (epfd_ < 0) return -1;
  constexpr int kMaxEvents = 128;
  struct epoll_event raw[kMaxEvents];
  const int rc = ::epoll_wait(epfd_, raw, kMaxEvents, timeout_ms);
  if (rc < 0) return errno == EINTR ? 0 : -1;
  events->reserve(static_cast<size_t>(rc));
  for (int i = 0; i < rc; ++i) {
    PolledEvent event;
    event.data = raw[i].data.ptr;
    // EPOLLRDHUP (peer half-close) counts as readable: the consumer's
    // read() surfaces the EOF. Kernels usually set EPOLLIN alongside,
    // but not guaranteed across versions.
    event.readable = (raw[i].events & (EPOLLIN | EPOLLRDHUP)) != 0;
    event.writable = (raw[i].events & EPOLLOUT) != 0;
    event.error = (raw[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    events->push_back(event);
  }
  return rc;
}

}  // namespace manirank

#endif  // defined(__linux__)
