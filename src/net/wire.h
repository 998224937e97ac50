#ifndef SEEP_NET_WIRE_H_
#define SEEP_NET_WIRE_H_

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "serde/frame.h"

namespace seep::net {

/// Kinds of messages on a worker-to-worker TCP stream. The body of each is
/// opaque to net/: the transport layer above encodes tuple batches and
/// checkpoints with the core codecs, net/ only moves envelopes.
enum class MessageType : uint8_t {
  kHello = 1,  // first frame on every outbound link: identifies from_vm
  kBatch = 2,  // a tuple batch (data path)
  // 3, 4 and 5 are retired and decode as corruption.
  kCheckpoint = 6,  // one serialized checkpoint parcel, whole
};

/// One message between two VM workers: a typed envelope plus an opaque body.
/// `ship_id` names the checkpoint parcel a kCheckpoint carries (the sender
/// keeps the parcel's arrival callback; the id travels with the bytes).
struct Message {
  MessageType type = MessageType::kBatch;
  VmId from_vm = kInvalidVm;
  VmId to_vm = kInvalidVm;
  uint64_t ship_id = 0;
  std::vector<uint8_t> body;
};

/// Encodes `msg` into a crc32c frame ready for the wire: the serde
/// [length | crc | payload] frame around the encoded envelope. The wire
/// stream is simply a concatenation of such frames.
std::vector<uint8_t> EncodeMessage(const Message& msg);

/// Decodes the payload of one frame (already CRC-verified by FrameReader /
/// UnframePayload) back into a Message.
[[nodiscard]]
Result<Message> DecodeMessage(const std::vector<uint8_t>& payload);

/// Incremental parser for a stream of frames. Feed it raw bytes as they
/// arrive from a socket; it validates each header against `max_payload`
/// *before* buffering a frame's worth of bytes and each completed payload
/// against its crc32c, and hands back whole payloads. Any error is sticky:
/// a stream that lied about a length or failed a CRC is torn down by the
/// caller (the peer replays through the recovery protocol; there is no
/// resync inside a stream).
class FrameReader {
 public:
  explicit FrameReader(
      uint64_t max_payload = serde::kDefaultMaxFramePayload)
      : max_payload_(max_payload) {}

  /// Consumes `n` bytes, appending every completed frame payload to `out`.
  [[nodiscard]] Status Consume(const uint8_t* data, size_t n,
                 std::vector<std::vector<uint8_t>>* out);

  /// Bytes buffered waiting for the rest of a frame.
  size_t pending_bytes() const { return buf_.size() - pos_; }

 private:
  uint64_t max_payload_;
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;  // start of the unparsed region within buf_
};

}  // namespace seep::net

#endif  // SEEP_NET_WIRE_H_
