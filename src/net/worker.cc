#include "net/worker.h"

#include <sys/epoll.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/macros.h"

namespace seep::net {

namespace {

// Reconnect backoff: the first retry after kBackoffInitial, doubling up to
// kBackoffCap.
constexpr std::chrono::milliseconds kBackoffInitial{10};
constexpr std::chrono::milliseconds kBackoffCap{500};

// A close fires inside the connection's own event handling, so the
// connection is freed by a zero-delay timer, once that has unwound. The
// timer needs nothing from the worker, so it may outlive it.
void FreeLater(EventLoop* loop, std::unique_ptr<Connection> conn) {
  loop->AddTimer(std::chrono::milliseconds::zero(),
                 [dead = std::shared_ptr<Connection>(std::move(conn))] {});
}

}  // namespace

Worker::Worker(VmId vm, EndpointRegistry* registry, EventLoop* loop)
    : vm_(vm), registry_(registry), loop_(loop) {}

Worker::~Worker() {
  if (listener_.valid()) {
    registry_->Unregister(vm_);
    loop_->RemoveFd(listener_.get());
  }
  // Detaching the close callbacks keeps the teardown below (the members'
  // destructors) from reporting a death this worker initiated itself.
  for (auto& [to, link] : links_) {
    if (link.conn) link.conn->set_on_close(nullptr);
  }
  for (const Inbound& in : inbound_) in.conn->set_on_close(nullptr);
}

[[nodiscard]] Status Worker::Start() {
  SEEP_ASSIGN_OR_RETURN(listener_, ListenLoopback(0));
  SEEP_ASSIGN_OR_RETURN(port_, LocalPort(listener_.get()));
  registry_->Register(vm_, port_);
  loop_->AddFd(listener_.get(), EPOLLIN,
               [this](uint32_t) { OnListenerReadable(); });
  return Status::OK();
}

SendStatus Worker::Post(VmId to, const Message& msg) {
  std::vector<uint8_t> frame = EncodeMessage(msg);
  const size_t backlog = QueuedBytes() + frame.size();
  if (backlog > kMaxQueuedBytes) {
    DropFrames(to, 1);
    return SendStatus::kOverflow;
  }
  SendOnLink(to, std::move(frame));
  return backlog > kPressureBytes ? SendStatus::kPressured : SendStatus::kOk;
}

size_t Worker::QueuedBytes() const {
  size_t total = 0;
  for (const auto& [to, link] : links_) {
    total += link.pending_bytes;
    if (link.conn) total += link.conn->queued_bytes();
  }
  return total;
}

void Worker::DropFrames(VmId to, size_t n) {
  if (n == 0) return;
  stats_.frames_dropped += n;
  if (on_frames_dropped_) on_frames_dropped_(to, n);
}

void Worker::SendOnLink(VmId to, std::vector<uint8_t> frame) {
  Link& link = links_[to];
  if (!link.conn && !link.retry_scheduled) TryConnect(to);
  if (link.conn) {
    link.conn->Send(std::move(frame));
    return;
  }
  // Link down, retry pending: hold the frame until the link comes up.
  link.pending_bytes += frame.size();
  link.pending.push_back(std::move(frame));
}

void Worker::TryConnect(VmId to) {
  Link& link = links_[to];
  const std::optional<uint16_t> port = registry_->Lookup(to);
  if (!port.has_value()) {
    // Peer not (yet, or no longer) registered; retry on the same backoff
    // schedule as a refused connect.
    ++link.failures;
    ScheduleRetry(to);
    return;
  }
  auto fd = ConnectLoopback(*port);
  if (!fd.ok()) {
    ++link.failures;
    ScheduleRetry(to);
    return;
  }
  link.conn = std::make_unique<Connection>(loop_, std::move(fd).value(),
                                           /*connecting=*/true);
  link.conn->set_on_close(
      [this, to](Connection* conn) { OnOutboundClosed(to, conn); });
  // First frame on every outbound link: who we are, so the receiver can
  // attribute a later disconnect of this link to our VmId. A connecting
  // connection only queues, so nothing below can close it; once the
  // connect completes it flushes in order: hello, then the frames queued
  // while the link was down.
  Message hello;
  hello.type = MessageType::kHello;
  hello.from_vm = vm_;
  hello.to_vm = to;
  link.conn->Send(EncodeMessage(hello));
  for (std::vector<uint8_t>& frame : link.pending) {
    link.conn->Send(std::move(frame));
  }
  link.pending.clear();
  link.pending_bytes = 0;
}

void Worker::OnOutboundClosed(VmId to, Connection* conn) {
  auto it = links_.find(to);
  if (it == links_.end() || it->second.conn.get() != conn) return;
  Link& link = it->second;
  DropFrames(to, conn->frames_dropped());
  // A link that had come up earns a fresh backoff schedule; one that never
  // connected keeps climbing towards the cap.
  link.failures = conn->ever_connected() ? 0 : link.failures + 1;
  FreeLater(loop_, std::move(link.conn));
  ScheduleRetry(to);
  if (on_peer_disconnect_) on_peer_disconnect_(to);
}

void Worker::ScheduleRetry(VmId to) {
  Link& link = links_[to];
  if (link.retry_scheduled) return;
  link.retry_scheduled = true;
  const uint32_t shift = std::min<uint32_t>(link.failures, 16);
  const auto delay = std::min(kBackoffInitial * (1u << shift), kBackoffCap);
  loop_->AddTimer(delay, [this, alive = std::weak_ptr<bool>(alive_), to] {
    if (alive.expired()) return;  // the worker was killed meanwhile
    Link& retried = links_.at(to);
    retried.retry_scheduled = false;
    if (!retried.conn) TryConnect(to);
  });
}

void Worker::OnListenerReadable() {
  while (true) {
    auto fd = AcceptConnection(listener_.get());
    if (!fd.ok()) return;
    if (!fd.value().valid()) return;  // accept queue drained
    auto conn = std::make_unique<Connection>(loop_, std::move(fd).value(),
                                             /*connecting=*/false);
    conn->set_on_frame([this](Connection* c, std::vector<uint8_t> payload) {
      OnInboundFrame(c, std::move(payload));
    });
    conn->set_on_close([this](Connection* c) { OnInboundClosed(c); });
    inbound_.push_back(Inbound{std::move(conn), kInvalidVm});
  }
}

void Worker::OnInboundFrame(Connection* conn,
                            std::vector<uint8_t> payload) {
  auto decoded = DecodeMessage(payload);
  if (!decoded.ok()) {
    // Undecodable envelope after a valid CRC: protocol bug or version skew.
    // Treat the stream as poisoned, same as corruption.
    conn->Close();
    return;
  }
  Message msg = std::move(decoded).value();
  if (msg.type == MessageType::kHello) {
    for (Inbound& in : inbound_) {
      if (in.conn.get() == conn) {
        in.peer = msg.from_vm;
        break;
      }
    }
    return;
  }
  ++stats_.messages_delivered;
  if (on_message_) on_message_(std::move(msg));
}

void Worker::OnInboundClosed(Connection* conn) {
  for (auto it = inbound_.begin(); it != inbound_.end(); ++it) {
    if (it->conn.get() != conn) continue;
    const VmId peer = it->peer;
    FreeLater(loop_, std::move(it->conn));
    inbound_.erase(it);
    if (peer != kInvalidVm && on_peer_disconnect_) on_peer_disconnect_(peer);
    return;
  }
}

}  // namespace seep::net
