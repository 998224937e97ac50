#include "net/event_loop.h"

#include <sys/epoll.h>
#include <time.h>

#include <cerrno>

#include "common/macros.h"

namespace seep::net {

namespace {
// One epoll wait's worth of events; more simply arrive on the next turn.
constexpr int kMaxEvents = 64;
}  // namespace

EventLoop::EventLoop() : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {
  SEEP_CHECK(epoll_fd_.valid());
}

EventLoop::~EventLoop() = default;

void EventLoop::AddFd(int fd, uint32_t mask, FdCallback cb) {
  epoll_event ev{};
  ev.events = mask;
  ev.data.fd = fd;
  SEEP_CHECK_EQ(::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev), 0);
  fd_callbacks_[fd] = std::move(cb);
}

void EventLoop::UpdateFd(int fd, uint32_t mask) {
  epoll_event ev{};
  ev.events = mask;
  ev.data.fd = fd;
  SEEP_CHECK_EQ(::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &ev), 0);
}

void EventLoop::RemoveFd(int fd) {
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
  fd_callbacks_.erase(fd);
}

void EventLoop::Poll(std::chrono::microseconds timeout) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(timeout).count();
  const timespec wait{static_cast<time_t>(ns / 1'000'000'000),
                      static_cast<long>(ns % 1'000'000'000)};
  epoll_event events[kMaxEvents];
  // Nanosecond timeouts: the TCP pump waits fractions of a millisecond.
  // (Linux 5.11+; on an older kernel this fails loudly instead of never
  // delivering.)
  const int n =
      ::epoll_pwait2(epoll_fd_.get(), events, kMaxEvents, &wait, nullptr);
  SEEP_CHECK(n >= 0 || errno == EINTR);
  for (int i = 0; i < n; ++i) {
    // A callback may remove its own fd or another; look each one up afresh.
    auto it = fd_callbacks_.find(events[i].data.fd);
    if (it != fd_callbacks_.end()) it->second(events[i].events);
  }
}

}  // namespace seep::net
