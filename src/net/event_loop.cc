#include "net/event_loop.h"

#include <sys/epoll.h>
#include <time.h>

#include <algorithm>
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

void EventLoop::AddTimer(std::chrono::milliseconds delay, Task task) {
  timers_.push(Timer{Clock::now() + delay, ++next_timer_id_, std::move(task)});
}

void EventLoop::FireDueTimers() {
  const Clock::time_point now = Clock::now();
  while (!timers_.empty() && timers_.top().deadline <= now) {
    Task task = std::move(timers_.top().task);
    timers_.pop();
    task();
  }
}

void EventLoop::Poll(std::chrono::microseconds timeout) {
  if (!timers_.empty()) {
    const auto until = std::chrono::duration_cast<std::chrono::microseconds>(
        timers_.top().deadline - Clock::now());
    timeout = std::min(timeout, std::max(until, decltype(until)::zero()));
  }
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
  FireDueTimers();
}

}  // namespace seep::net
