#include "net/worker.h"

#include <sys/epoll.h>

#include <utility>

#include "common/macros.h"

namespace seep::net {

Worker::Worker(VmId vm, EventLoop* loop) : vm_(vm), loop_(loop) {}

Worker::~Worker() {
  if (listener_.valid()) loop_->RemoveFd(listener_.get());
  // Detaching the close callbacks keeps the teardown below (the members'
  // destructors) from reporting a death this worker initiated itself.
  for (auto& [to, conn] : links_) conn->set_on_close(nullptr);
  for (const Inbound& in : inbound_) in.conn->set_on_close(nullptr);
}

[[nodiscard]] Status Worker::Start() {
  SEEP_ASSIGN_OR_RETURN(listener_, ListenLoopback(0));
  SEEP_ASSIGN_OR_RETURN(port_, LocalPort(listener_.get()));
  loop_->AddFd(listener_.get(), EPOLLIN,
               [this](uint32_t) { OnListenerReadable(); });
  return Status::OK();
}

SendStatus Worker::Post(VmId to, uint16_t to_port, const Message& msg) {
  std::vector<uint8_t> frame = EncodeMessage(msg);
  const size_t backlog = QueuedBytes() + frame.size();
  if (backlog > kMaxQueuedBytes) {
    DropFrames(to, 1);
    return SendStatus::kOverflow;
  }
  auto link = links_.find(to);
  if (link == links_.end()) {
    auto fd = ConnectLoopback(to_port);
    if (!fd.ok()) {
      DropFrames(to, 1);
      return SendStatus::kClosed;
    }
    auto conn = std::make_unique<Connection>(loop_, std::move(fd).value(),
                                             /*connecting=*/true);
    conn->set_on_close(
        [this, to](Connection* c) { OnOutboundClosed(to, c); });
    // First frame on every outbound link: who we are, so the receiver can
    // attribute a later disconnect of this link to our VmId. A connecting
    // connection only queues, so nothing here can close it; once the
    // connect completes it flushes in order.
    Message hello;
    hello.type = MessageType::kHello;
    hello.from_vm = vm_;
    conn->Send(EncodeMessage(hello));
    link = links_.emplace(to, std::move(conn)).first;
  }
  // A failed write closes the link inside Send, which moves it out of
  // links_; the connection itself lives on in closed_.
  Connection* conn = link->second.get();
  conn->Send(std::move(frame));
  return backlog > kPressureBytes ? SendStatus::kPressured : SendStatus::kOk;
}

size_t Worker::QueuedBytes() const {
  size_t total = 0;
  for (const auto& [to, conn] : links_) total += conn->queued_bytes();
  return total;
}

void Worker::DropFrames(VmId to, size_t n) {
  if (n > 0 && on_frames_dropped_) on_frames_dropped_(to, n);
}

void Worker::OnOutboundClosed(VmId to, Connection* conn) {
  auto it = links_.find(to);
  if (it == links_.end() || it->second.get() != conn) return;
  DropFrames(to, conn->frames_dropped());
  closed_.push_back(std::move(it->second));
  links_.erase(it);
  if (on_peer_disconnect_) on_peer_disconnect_(to);
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
  if (on_message_) on_message_(std::move(msg));
}

void Worker::OnInboundClosed(Connection* conn) {
  for (auto it = inbound_.begin(); it != inbound_.end(); ++it) {
    if (it->conn.get() != conn) continue;
    const VmId peer = it->peer;
    closed_.push_back(std::move(it->conn));
    inbound_.erase(it);
    if (peer != kInvalidVm && on_peer_disconnect_) on_peer_disconnect_(peer);
    return;
  }
}

}  // namespace seep::net
