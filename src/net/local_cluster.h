#ifndef SEEP_NET_LOCAL_CLUSTER_H_
#define SEEP_NET_LOCAL_CLUSTER_H_

#include <chrono>
#include <memory>
#include <unordered_map>

#include "common/ids.h"
#include "common/status.h"
#include "net/event_loop.h"
#include "net/worker.h"

namespace seep::net {

/// A cluster of VM workers on 127.0.0.1 ephemeral ports: the harness the TCP
/// transport (and the net tests/benches) run against. Owns one EventLoop —
/// a single epoll set holding every VM's listener and connections — and
/// one Worker per attached VM.
///
/// Single-threaded: the owner drives every socket. Post writes straight to
/// the sockets; everything else (accepting, connecting, reading, flushing
/// what the kernel did not take) happens inside Poll, and so do all worker
/// callbacks. A callback may Post but must not Poll, start or kill a
/// worker.
class LocalCluster {
 public:
  LocalCluster() = default;

  LocalCluster(const LocalCluster&) = delete;
  LocalCluster& operator=(const LocalCluster&) = delete;

  /// Creates and starts a worker for `vm` with its callbacks installed.
  [[nodiscard]] Status StartWorker(
      VmId vm, Worker::MessageCallback on_message,
      Worker::PeerCallback on_peer_disconnect = nullptr,
      Worker::DropCallback on_frames_dropped = nullptr);

  /// Hard-kills `vm`'s worker: its sockets close mid-stream, and peers
  /// observe a dead TCP peer at their next poll. No-op for an unknown VM.
  void KillWorker(VmId vm);

  /// Sends `msg` from `from`'s worker to `to`'s (see Worker::Post). Returns
  /// kClosed if either VM has no live worker.
  SendStatus Post(VmId from, VmId to, const Message& msg);

  /// Runs one turn of the shared loop, waiting up to `timeout` for socket
  /// events (zero takes only what is ready), then frees the connections
  /// that closed.
  void Poll(std::chrono::microseconds timeout);

  /// Whether `vm` currently has a live worker.
  bool IsAttached(VmId vm) const { return workers_.count(vm) > 0; }

 private:
  // Declared first, so it is destroyed last: it outlives the workers, whose
  // destruction deregisters their sockets from it.
  EventLoop loop_;
  std::unordered_map<VmId, std::unique_ptr<Worker>> workers_;
};

}  // namespace seep::net

#endif  // SEEP_NET_LOCAL_CLUSTER_H_
