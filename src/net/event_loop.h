#ifndef SEEP_NET_EVENT_LOOP_H_
#define SEEP_NET_EVENT_LOOP_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "net/socket.h"

namespace seep::net {

/// An epoll-based reactor with no thread of its own: its owner drives it
/// one turn at a time with Poll, and every fd callback runs inside that
/// call, on the owner's thread. One loop carries any number of sockets
/// (LocalCluster puts every VM's listener and connections on a single
/// loop), so nothing in net/ takes a lock: all of it is confined to the
/// thread that polls.
class EventLoop {
 public:
  using FdCallback = std::function<void(uint32_t epoll_events)>;

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

  /// Runs one turn: waits up to `timeout` for fd events (zero takes only
  /// what is ready) and dispatches them. Must not be called from inside a
  /// loop callback.
  void Poll(std::chrono::microseconds timeout);

 private:
  ScopedFd epoll_fd_;
  std::unordered_map<int, FdCallback> fd_callbacks_;
};

}  // namespace seep::net

#endif  // SEEP_NET_EVENT_LOOP_H_
