#include "net/connection.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace seep::net {

namespace {
// Per-read buffer; a busy stream just loops until EAGAIN.
constexpr size_t kReadChunk = 64 * 1024;
}  // namespace

Connection::Connection(EventLoop* loop, ScopedFd fd, bool connecting)
    : loop_(loop),
      fd_(std::move(fd)),
      state_(connecting ? State::kConnecting : State::kConnected),
      // While connecting we wait for writability (connect completion); once
      // connected we always want readability and add writability on demand.
      want_write_(connecting) {
  loop_->AddFd(fd_.get(), EPOLLIN | (want_write_ ? EPOLLOUT : 0u),
               [this](uint32_t events) { OnEvents(events); });
}

Connection::~Connection() { Close(); }

void Connection::Send(std::vector<uint8_t> frame) {
  if (state_ == State::kClosed) return;
  queued_bytes_ += frame.size();
  write_queue_.push_back(std::move(frame));
  if (state_ == State::kConnected) FlushWrites();
}

void Connection::OnEvents(uint32_t events) {
  if (state_ == State::kConnecting && (events & (EPOLLOUT | EPOLLERR))) {
    HandleConnectComplete();
    if (state_ == State::kClosed) return;
  }
  if (events & (EPOLLHUP | EPOLLERR)) {
    // Read first: the peer may have written data before dying, and EPOLLHUP
    // with pending bytes is a half-close, not necessarily an error.
    HandleReadable();
    if (state_ != State::kClosed) Close();
    return;
  }
  if (events & EPOLLIN) {
    HandleReadable();
    if (state_ == State::kClosed) return;
  }
  if ((events & EPOLLOUT) && state_ == State::kConnected) FlushWrites();
}

void Connection::HandleConnectComplete() {
  if (SocketError(fd_.get()) != 0) {
    Close();
    return;
  }
  state_ = State::kConnected;
  FlushWrites();
  if (state_ != State::kClosed) UpdateInterest();
}

void Connection::HandleReadable() {
  uint8_t buf[kReadChunk];
  while (true) {
    const ssize_t n = ::read(fd_.get(), buf, sizeof(buf));
    if (n > 0) {
      std::vector<std::vector<uint8_t>> payloads;
      const Status st =
          reader_.Consume(buf, static_cast<size_t>(n), &payloads);
      for (auto& payload : payloads) {
        if (on_frame_) on_frame_(this, std::move(payload));
        if (state_ == State::kClosed) return;
      }
      if (!st.ok()) {
        // A corrupt stream cannot be resynchronised; drop the link and let
        // the recovery protocol replay whatever was in flight.
        Close();
        return;
      }
      continue;
    }
    if (n == 0) {  // orderly EOF from the peer
      Close();
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    Close();
    return;
  }
}

void Connection::FlushWrites() {
  while (!write_queue_.empty()) {
    const std::vector<uint8_t>& front = write_queue_.front();
    const ssize_t n = ::send(fd_.get(), front.data() + write_offset_,
                             front.size() - write_offset_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      Close();
      return;
    }
    write_offset_ += static_cast<size_t>(n);
    queued_bytes_ -= static_cast<size_t>(n);
    if (write_offset_ == front.size()) {
      write_queue_.pop_front();
      write_offset_ = 0;
    }
  }
  UpdateInterest();
}

void Connection::UpdateInterest() {
  const bool need_write =
      state_ == State::kConnecting || !write_queue_.empty();
  if (need_write == want_write_) return;
  want_write_ = need_write;
  loop_->UpdateFd(fd_.get(), EPOLLIN | (need_write ? EPOLLOUT : 0u));
}

void Connection::Close() {
  if (state_ == State::kClosed) return;
  state_ = State::kClosed;
  loop_->RemoveFd(fd_.get());
  fd_.Reset();
  frames_dropped_ += write_queue_.size();
  write_queue_.clear();
  queued_bytes_ = 0;
  if (on_close_) {
    // Detached before it runs, so it fires exactly once.
    CloseCallback cb = std::move(on_close_);
    on_close_ = nullptr;
    cb(this);
  }
}

}  // namespace seep::net
