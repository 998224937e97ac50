#ifndef SEEP_NET_WORKER_H_
#define SEEP_NET_WORKER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/wire.h"

namespace seep::net {

/// Bounds on a worker's queued outbound bytes: what the kernel's socket
/// buffers did not take. Above the watermark a post reports kPressured; a
/// frame that would take the queue past the cap is dropped.
inline constexpr size_t kPressureBytes = 4 << 20;
inline constexpr size_t kMaxQueuedBytes = 64 << 20;

/// The networking half of one VM: a loopback listener other workers connect
/// to, and one outbound Connection per peer VM this worker sends to. A link
/// opens on the first post to its peer and lives as long as the peer's
/// worker does; the post after a link's death opens a fresh one. Inbound
/// links identify their peer through a kHello frame, so disconnects are
/// attributed to a VmId on both sides.
///
/// A worker has no thread: its sockets live on an EventLoop it shares with
/// the other workers, and every callback runs inside that loop's Poll.
/// Destroying the worker is a hard stop.
class Worker {
 public:
  /// Inbound message.
  using MessageCallback = std::function<void(Message)>;
  /// A link to/from `peer` died. Fires for both inbound and outbound links
  /// (once per link death, which means a dead peer is typically reported
  /// twice: data link and reverse link).
  using PeerCallback = std::function<void(VmId peer)>;
  /// `frames` outbound frames to `peer` were dropped: one at a time at the
  /// queue cap or when a link cannot be opened, or the rest of a link's
  /// queue when the link dies.
  using DropCallback = std::function<void(VmId peer, size_t frames)>;

  Worker(VmId vm, EventLoop* loop);
  /// Closes every socket. Peers see the close as a dead TCP peer at their
  /// next poll — exactly the failure the recovery protocol handles.
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

  /// Binds the listener (ephemeral loopback port) and adds it to the loop.
  [[nodiscard]] Status Start();

  /// Writes `msg` to the link to `to`, first opening one to `to_port` (the
  /// port `to`'s worker listens on) if there is none; what the socket does
  /// not take stays queued. kPressured reflects this worker's queued
  /// outbound bytes crossing kPressureBytes; kOverflow means the frame was
  /// dropped at kMaxQueuedBytes, and kClosed that no link could be opened
  /// (both reported through the drop callback).
  SendStatus Post(VmId to, uint16_t to_port, const Message& msg);

  /// Frees the connections that have closed. A connection closes inside
  /// its own event handling, so it is freed only once the poll that
  /// closed it has returned.
  void FreeClosed() { closed_.clear(); }

  VmId vm() const { return vm_; }
  uint16_t port() const { return port_; }

 private:
  /// One accepted inbound connection and the peer it announced via kHello.
  struct Inbound {
    std::unique_ptr<Connection> conn;
    VmId peer = kInvalidVm;
  };

  void OnListenerReadable();
  void OnOutboundClosed(VmId to, Connection* conn);
  void OnInboundFrame(Connection* conn, std::vector<uint8_t> payload);
  void OnInboundClosed(Connection* conn);
  void DropFrames(VmId to, size_t n);
  size_t QueuedBytes() const;

  const VmId vm_;
  EventLoop* const loop_;

  MessageCallback on_message_;
  PeerCallback on_peer_disconnect_;
  DropCallback on_frames_dropped_;

  ScopedFd listener_;
  uint16_t port_ = 0;
  std::unordered_map<VmId, std::unique_ptr<Connection>> links_;
  std::vector<Inbound> inbound_;
  std::vector<std::unique_ptr<Connection>> closed_;
};

}  // namespace seep::net

#endif  // SEEP_NET_WORKER_H_
