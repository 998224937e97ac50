#include "net/wire.h"

#include <cstring>

#include "common/macros.h"
#include "serde/crc32c.h"
#include "serde/decoder.h"
#include "serde/encoder.h"

namespace seep::net {

std::vector<uint8_t> EncodeMessage(const Message& msg) {
  serde::Encoder enc;
  enc.Reserve(1 + 4 + 4 + 9 + msg.body.size());
  enc.AppendU8(static_cast<uint8_t>(msg.type));
  enc.AppendFixed32(msg.from_vm);
  enc.AppendFixed32(msg.to_vm);
  enc.AppendVarint64(msg.ship_id);
  enc.AppendRaw(msg.body.data(), msg.body.size());
  return serde::FramePayload(std::move(enc).TakeBuffer());
}

[[nodiscard]]
Result<Message> DecodeMessage(const std::vector<uint8_t>& payload) {
  serde::Decoder dec(payload);
  Message msg;
  SEEP_ASSIGN_OR_RETURN(const uint8_t type, dec.ReadU8());
  msg.type = static_cast<MessageType>(type);
  switch (msg.type) {
    case MessageType::kHello:
    case MessageType::kBatch:
    case MessageType::kCheckpoint:
      break;
    default:
      return Status::Corruption("unknown wire message type");
  }
  SEEP_ASSIGN_OR_RETURN(msg.from_vm, dec.ReadFixed32());
  SEEP_ASSIGN_OR_RETURN(msg.to_vm, dec.ReadFixed32());
  SEEP_ASSIGN_OR_RETURN(msg.ship_id, dec.ReadVarint64());
  msg.body.assign(payload.begin() + dec.position(), payload.end());
  return msg;
}

[[nodiscard]] Status FrameReader::Consume(const uint8_t* data, size_t n,
                            std::vector<std::vector<uint8_t>>* out) {
  buf_.insert(buf_.end(), data, data + n);
  while (true) {
    const size_t avail = buf_.size() - pos_;
    if (avail < serde::kFrameHeaderBytes) break;
    SEEP_ASSIGN_OR_RETURN(
        const serde::FrameHeader header,
        serde::ReadFrameHeader(buf_.data() + pos_, avail, max_payload_));
    const size_t frame_len =
        serde::kFrameHeaderBytes + static_cast<size_t>(header.payload_len);
    if (avail < frame_len) break;
    const uint8_t* payload = buf_.data() + pos_ + serde::kFrameHeaderBytes;
    if (serde::Crc32c(payload, header.payload_len) != header.crc) {
      return Status::Corruption("frame CRC mismatch");
    }
    out->emplace_back(payload, payload + header.payload_len);
    pos_ += frame_len;
  }
  // Compact once the parsed prefix dominates, so a long-lived stream does
  // not grow the buffer without bound while staying O(1) amortized.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 4096)) {
    buf_.erase(buf_.begin(), buf_.begin() + pos_);
    pos_ = 0;
  }
  return Status::OK();
}

}  // namespace seep::net
