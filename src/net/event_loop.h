#ifndef SEEP_NET_EVENT_LOOP_H_
#define SEEP_NET_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/sync.h"
#include "net/socket.h"

namespace seep::net {

/// Insertion sequence of a scheduled timer: the tie-break between timers
/// with the same deadline. Value 0 is never issued.
using TimerId = uint64_t;

/// An epoll-based reactor, run by exactly one thread (the worker thread that
/// calls Run). Everything registered with the loop — fd callbacks, timers,
/// posted tasks — executes on that thread, which is what lets Connection and
/// Worker keep all their state unlocked: the loop thread is a single-writer
/// domain, and other threads talk to it only through Post (task queue +
/// eventfd wakeup).
///
/// The single-writer discipline is a capability: Run adopts
/// sync::LoopThread, loop-confined methods are SEEP_RUN_ON(LoopThread), and
/// loop-confined state is SEEP_GUARDED_BY(LoopThread) — so a clang SEEP_TSA
/// build rejects any call that reaches them from another thread.
class EventLoop {
 public:
  using FdCallback = std::function<void(uint32_t epoll_events)>;
  using Task = std::function<void()>;
  using Clock = std::chrono::steady_clock;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Runs the loop until Stop: waits on epoll, dispatches fd events, fires
  /// due timers, drains posted tasks. Adopts the LoopThread role for the
  /// calling thread; call from the owning thread only.
  void Run();

  /// Makes Run return after the current iteration. Safe from any thread and
  /// from inside loop callbacks.
  void Stop();

  /// Registers `fd` for the epoll events in `mask` (EPOLLIN/EPOLLOUT/...),
  /// dispatching to `cb` on the loop thread. Loop thread only.
  void AddFd(int fd, uint32_t mask, FdCallback cb)
      SEEP_RUN_ON(sync::LoopThread);

  /// Changes the interest mask of a registered fd. Loop thread only.
  void UpdateFd(int fd, uint32_t mask) SEEP_RUN_ON(sync::LoopThread);

  /// Unregisters `fd`; no further callbacks fire for it. Loop thread only.
  void RemoveFd(int fd) SEEP_RUN_ON(sync::LoopThread);

  /// Enqueues `task` to run on the loop thread and wakes the loop. Safe from
  /// any thread — this is the only cross-thread entry point. Tasks posted
  /// after Stop may never run.
  void Post(Task task) SEEP_EXCLUDES(tasks_mu_);

  /// Schedules `task` on the loop thread after `delay` (reconnect backoff
  /// and the like). Loop thread only.
  void AddTimer(std::chrono::milliseconds delay, Task task)
      SEEP_RUN_ON(sync::LoopThread);

  /// Whether the caller is the thread currently inside Run (callbacks may
  /// assert this). Safe from any thread.
  bool InLoopThread() const {
    return std::this_thread::get_id() ==
           loop_thread_.load(std::memory_order_acquire);
  }

 private:
  struct Timer {
    Clock::time_point deadline;
    TimerId id;
    mutable Task task;  // moved out when the timer fires
    bool operator>(const Timer& other) const {
      if (deadline != other.deadline) return deadline > other.deadline;
      return id > other.id;
    }
  };

  void Wakeup();
  void DrainWakeup() SEEP_RUN_ON(sync::LoopThread);
  int NextTimeoutMillis() const SEEP_RUN_ON(sync::LoopThread);
  void FireDueTimers() SEEP_RUN_ON(sync::LoopThread);

  ScopedFd epoll_fd_ SEEP_UNGUARDED("set in the constructor, fixed after");
  ScopedFd wakeup_fd_ SEEP_UNGUARDED("set in the constructor, fixed after");
  std::atomic<bool> stop_{false};
  // The id of the thread inside Run; atomic because InLoopThread races with
  // Run's store by design (it answers "am I that thread?" from any thread).
  std::atomic<std::thread::id> loop_thread_{};

  std::unordered_map<int, FdCallback> fd_callbacks_
      SEEP_GUARDED_BY(sync::LoopThread);

  sync::Mutex tasks_mu_;
  std::vector<Task> tasks_ SEEP_GUARDED_BY(tasks_mu_);

  TimerId next_timer_id_ SEEP_GUARDED_BY(sync::LoopThread) = 0;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_
      SEEP_GUARDED_BY(sync::LoopThread);
};

}  // namespace seep::net

#endif  // SEEP_NET_EVENT_LOOP_H_
