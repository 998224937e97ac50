#ifndef SEEP_NET_CONNECTION_H_
#define SEEP_NET_CONNECTION_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "net/event_loop.h"
#include "net/socket.h"
#include "net/wire.h"

namespace seep::net {

/// Outcome of posting a frame. kPressured means the frame was accepted but
/// the sender's queued bytes have crossed the soft watermark — the sender
/// should ease off; kOverflow means the hard cap was hit and the frame was
/// dropped (the peer recovers the data through replay, exactly as it would
/// after a crash).
enum class [[nodiscard]] SendStatus : uint8_t {
  kOk = 0,
  kPressured = 1,
  kOverflow = 2,
  kClosed = 3,
};

/// One non-blocking TCP stream registered with an EventLoop. Handles
/// connect completion, writes that go straight to the socket with the rest
/// queued until it is writable again, incremental frame reassembly on the
/// inbound side (FrameReader's default payload ceiling), and error/EOF
/// detection. A Connection dies once and reports it; the Worker opens a
/// fresh one for the next post.
class Connection {
 public:
  using FrameCallback =
      std::function<void(Connection*, std::vector<uint8_t> payload)>;
  using CloseCallback = std::function<void(Connection*)>;

  /// Takes ownership of `fd`, which is either connecting (client side) or
  /// already established (accepted side), and registers it with `loop`.
  Connection(EventLoop* loop, ScopedFd fd, bool connecting);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void set_on_frame(FrameCallback cb) { on_frame_ = std::move(cb); }
  /// Fires exactly once, after the fd is deregistered. The object must
  /// outlive the callback: free it only once its event handling unwinds.
  void set_on_close(CloseCallback cb) { on_close_ = std::move(cb); }

  /// Writes an already-framed message, queueing whatever the socket does not
  /// take. Frames sent while still connecting flush in order once the
  /// connect completes. A failed write closes the connection, and the close
  /// reports this frame among the dropped ones.
  void Send(std::vector<uint8_t> frame);

  /// Deregisters from the loop and closes the socket. Pending outbound
  /// frames are dropped (a closing link makes no delivery promises — the
  /// recovery protocol does). Fires on_close unless it already fired.
  void Close();

  size_t queued_bytes() const { return queued_bytes_; }
  size_t frames_dropped() const { return frames_dropped_; }

 private:
  enum class State : uint8_t { kConnecting, kConnected, kClosed };

  void OnEvents(uint32_t events);
  void HandleConnectComplete();
  void HandleReadable();
  void FlushWrites();
  void UpdateInterest();

  EventLoop* const loop_;
  ScopedFd fd_;
  State state_;

  FrameReader reader_;
  FrameCallback on_frame_;
  CloseCallback on_close_;

  std::deque<std::vector<uint8_t>> write_queue_;
  // Bytes of write_queue_.front() already sent.
  size_t write_offset_ = 0;
  size_t queued_bytes_ = 0;
  size_t frames_dropped_ = 0;
  bool want_write_ = false;
};

}  // namespace seep::net

#endif  // SEEP_NET_CONNECTION_H_
