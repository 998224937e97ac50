#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "common/macros.h"

namespace seep::net {

namespace {
// One epoll_wait's worth of events; more simply arrive on the next turn.
constexpr int kMaxEvents = 64;
}  // namespace

EventLoop::EventLoop()
    : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)),
      wakeup_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  SEEP_CHECK(epoll_fd_.valid());
  SEEP_CHECK(wakeup_fd_.valid());
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wakeup_fd_.get();
  SEEP_CHECK_EQ(
      ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wakeup_fd_.get(), &ev), 0);
}

EventLoop::~EventLoop() = default;

void EventLoop::Wakeup() {
  const uint64_t one = 1;
  // A full eventfd counter (impossible here) would mean a wakeup is already
  // pending, which is all we need.
  [[maybe_unused]] const ssize_t n =
      ::write(wakeup_fd_.get(), &one, sizeof(one));
}

void EventLoop::DrainWakeup() {
  uint64_t count;
  while (::read(wakeup_fd_.get(), &count, sizeof(count)) > 0) {
  }
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  Wakeup();
}

void EventLoop::Post(Task task) {
  {
    sync::MutexLock lock(&tasks_mu_);
    tasks_.push_back(std::move(task));
  }
  Wakeup();
}

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

int EventLoop::NextTimeoutMillis() const {
  if (timers_.empty()) return 100;  // idle heartbeat; wakeups cut it short
  const auto until = timers_.top().deadline - Clock::now();
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(until).count();
  if (ms <= 0) return 0;
  return static_cast<int>(std::min<int64_t>(ms, 100));
}

void EventLoop::FireDueTimers() {
  const Clock::time_point now = Clock::now();
  while (!timers_.empty() && timers_.top().deadline <= now) {
    Task task = std::move(timers_.top().task);
    timers_.pop();
    task();
  }
}

void EventLoop::Run() {
  // The calling thread is the loop thread for the duration of Run: it holds
  // the LoopThread capability, unlocking the loop-confined methods/state.
  sync::ScopedThreadRole role(sync::LoopThread);
  loop_thread_.store(std::this_thread::get_id(), std::memory_order_release);
  epoll_event events[kMaxEvents];
  while (!stop_.load(std::memory_order_acquire)) {
    const int n =
        ::epoll_wait(epoll_fd_.get(), events, kMaxEvents,
                     NextTimeoutMillis());
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wakeup_fd_.get()) {
        DrainWakeup();
        continue;
      }
      // The callback may RemoveFd itself or peers; look up per event.
      auto it = fd_callbacks_.find(fd);
      if (it != fd_callbacks_.end()) it->second(events[i].events);
    }
    FireDueTimers();
    // Drain posted tasks last: a task may close connections whose events
    // were dispatched above, never the other way around.
    std::vector<Task> tasks;
    {
      sync::MutexLock lock(&tasks_mu_);
      tasks.swap(tasks_);
    }
    for (Task& task : tasks) task();
  }
  loop_thread_.store(std::thread::id(), std::memory_order_release);
}

}  // namespace seep::net
