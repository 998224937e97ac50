#ifndef SEEP_NET_EVENT_LOOP_H_
#define SEEP_NET_EVENT_LOOP_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "net/socket.h"

namespace seep::net {

/// Insertion sequence of a scheduled timer: the tie-break between timers
/// with the same deadline. Value 0 is never issued.
using TimerId = uint64_t;

/// An epoll-based reactor with no thread of its own: its owner drives it
/// one turn at a time with Poll, and every fd callback and timer runs inside
/// that call, on the owner's thread. One loop carries any number of sockets
/// (LocalCluster puts every VM's listener and connections on a single
/// loop), so nothing in net/ takes a lock: all of it is confined to the
/// thread that polls.
class EventLoop {
 public:
  using FdCallback = std::function<void(uint32_t epoll_events)>;
  using Task = std::function<void()>;
  using Clock = std::chrono::steady_clock;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` for the epoll events in `mask` (EPOLLIN/EPOLLOUT/...),
  /// dispatching to `cb` from Poll.
  void AddFd(int fd, uint32_t mask, FdCallback cb);

  /// Changes the interest mask of a registered fd.
  void UpdateFd(int fd, uint32_t mask);

  /// Unregisters `fd`; no further callbacks fire for it.
  void RemoveFd(int fd);

  /// Runs `task` in the first Poll at least `delay` from now (reconnect
  /// backoff and the like). A zero delay runs it at the end of the current
  /// turn, after the fd callbacks have unwound.
  void AddTimer(std::chrono::milliseconds delay, Task task);

  /// Runs one turn: waits up to `timeout` for fd events (less if a timer
  /// falls due first; zero takes only what is ready), dispatches them, then
  /// fires every due timer. Must not be called from inside a loop callback.
  void Poll(std::chrono::microseconds timeout);

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

  void FireDueTimers();

  ScopedFd epoll_fd_;
  std::unordered_map<int, FdCallback> fd_callbacks_;
  TimerId next_timer_id_ = 0;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_;
};

}  // namespace seep::net

#endif  // SEEP_NET_EVENT_LOOP_H_
