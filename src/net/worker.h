#ifndef SEEP_NET_WORKER_H_
#define SEEP_NET_WORKER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "net/connection.h"
#include "net/endpoint.h"
#include "net/event_loop.h"
#include "net/wire.h"

namespace seep::net {

/// Bounds on a worker's queued outbound bytes: what the kernel's socket
/// buffers did not take, plus frames held while a link is down. Above the
/// watermark a post reports kPressured; a frame that would take the queue
/// past the cap is dropped.
inline constexpr size_t kPressureBytes = 4 << 20;
inline constexpr size_t kMaxQueuedBytes = 64 << 20;

/// The networking half of one VM: a loopback listener other workers connect
/// to, and one outbound Connection per peer VM this worker sends to (lazily
/// established, reconnected with capped exponential backoff after any
/// failure). Inbound links identify their peer through a kHello frame, so
/// disconnects are attributed to a VmId on both sides.
///
/// A worker has no thread: its sockets and retry timers live on an
/// EventLoop it shares with the other workers, and every callback runs
/// inside that loop's Poll. Destroying the worker is a hard stop.
class Worker {
 public:
  /// Inbound message.
  using MessageCallback = std::function<void(Message)>;
  /// A link to/from `peer` died. Fires for both inbound and outbound links
  /// (once per link death, which means a dead peer is typically reported
  /// twice: data link and reverse link).
  using PeerCallback = std::function<void(VmId peer)>;
  /// `frames` outbound frames to `peer` were dropped: one at a time at the
  /// queue cap, or the rest of a link's queue when the link dies.
  using DropCallback = std::function<void(VmId peer, size_t frames)>;

  /// Monotonic counters.
  struct Stats {
    uint64_t messages_delivered = 0;
    uint64_t frames_dropped = 0;
  };

  Worker(VmId vm, EndpointRegistry* registry, EventLoop* loop);
  /// Unregisters the endpoint and closes every socket. Peers see the close
  /// as a dead TCP peer at their next poll — exactly the failure the
  /// recovery protocol handles.
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  void set_on_message(MessageCallback cb) { on_message_ = std::move(cb); }
  void set_on_peer_disconnect(PeerCallback cb) {
    on_peer_disconnect_ = std::move(cb);
  }
  void set_on_frames_dropped(DropCallback cb) {
    on_frames_dropped_ = std::move(cb);
  }

  /// Binds the listener (ephemeral loopback port), registers it and adds it
  /// to the loop.
  [[nodiscard]] Status Start();

  /// Writes `msg` to the link to `to`, establishing the link if needed;
  /// what the socket does not take, or what waits for the link to come up,
  /// stays queued. kPressured reflects this worker's queued outbound bytes
  /// crossing kPressureBytes; kOverflow means the frame was dropped at
  /// kMaxQueuedBytes (and reported through the drop callback).
  SendStatus Post(VmId to, const Message& msg);

  VmId vm() const { return vm_; }
  uint16_t port() const { return port_; }
  const Stats& stats() const { return stats_; }

 private:
  /// One outbound link: the live connection (possibly still connecting), a
  /// pending queue for frames that arrive while the link is down, and the
  /// reconnect backoff state.
  struct Link {
    std::unique_ptr<Connection> conn;
    std::deque<std::vector<uint8_t>> pending;
    size_t pending_bytes = 0;
    uint32_t failures = 0;
    bool retry_scheduled = false;
  };

  /// One accepted inbound connection and the peer it announced via kHello.
  struct Inbound {
    std::unique_ptr<Connection> conn;
    VmId peer = kInvalidVm;
  };

  void OnListenerReadable();
  void SendOnLink(VmId to, std::vector<uint8_t> frame);
  void TryConnect(VmId to);
  void OnOutboundClosed(VmId to, Connection* conn);
  void ScheduleRetry(VmId to);
  void OnInboundFrame(Connection* conn, std::vector<uint8_t> payload);
  void OnInboundClosed(Connection* conn);
  void DropFrames(VmId to, size_t n);
  size_t QueuedBytes() const;

  const VmId vm_;
  EndpointRegistry* const registry_;
  EventLoop* const loop_;

  MessageCallback on_message_;
  PeerCallback on_peer_disconnect_;
  DropCallback on_frames_dropped_;

  ScopedFd listener_;
  uint16_t port_ = 0;
  std::unordered_map<VmId, Link> links_;
  std::vector<Inbound> inbound_;
  // Retry timers stay on the shared loop when the worker dies; each holds a
  // weak reference to this token and does nothing once it has expired.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  Stats stats_;
};

}  // namespace seep::net

#endif  // SEEP_NET_WORKER_H_
