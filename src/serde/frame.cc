#include "serde/frame.h"

#include <algorithm>

#include "common/macros.h"
#include "serde/crc32c.h"
#include "serde/decoder.h"
#include "serde/encoder.h"

namespace seep::serde {

[[nodiscard]]
Result<FrameHeader> ReadFrameHeader(const uint8_t* data, size_t size,
                                    uint64_t max_payload) {
  Decoder dec(data, size);
  FrameHeader header;
  SEEP_ASSIGN_OR_RETURN(header.payload_len, dec.ReadFixed64());
  SEEP_ASSIGN_OR_RETURN(header.crc, dec.ReadFixed32());
  if (header.payload_len > max_payload) {
    return Status::Corruption("frame length exceeds maximum");
  }
  return header;
}

std::vector<uint8_t> FramePayload(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame(kFrameHeaderBytes + payload.size());
  std::copy(payload.begin(), payload.end(), frame.begin() + kFrameHeaderBytes);
  SealFrame(frame.data(), payload.size());
  return frame;
}

void SealFrame(uint8_t* frame, size_t payload_len) {
  const uint32_t crc = Crc32c(frame + kFrameHeaderBytes, payload_len);
  Encoder::WriteFixed32(Encoder::WriteFixed64(frame, payload_len), crc);
}

[[nodiscard]] Result<std::span<const uint8_t>> CheckFrame(
    const uint8_t* frame, size_t size, uint64_t max_payload) {
  FrameHeader header;
  SEEP_ASSIGN_OR_RETURN(header, ReadFrameHeader(frame, size, max_payload));
  if (size - kFrameHeaderBytes != header.payload_len) {
    return Status::Corruption("frame length mismatch");
  }
  const std::span<const uint8_t> payload(frame + kFrameHeaderBytes,
                                         size - kFrameHeaderBytes);
  if (Crc32c(payload.data(), payload.size()) != header.crc) {
    return Status::Corruption("frame CRC mismatch");
  }
  return payload;
}

[[nodiscard]]
Result<std::vector<uint8_t>> UnframePayload(const std::vector<uint8_t>& frame,
                                            uint64_t max_payload) {
  std::span<const uint8_t> payload;
  SEEP_ASSIGN_OR_RETURN(payload,
                        CheckFrame(frame.data(), frame.size(), max_payload));
  return std::vector<uint8_t>(payload.begin(), payload.end());
}

}  // namespace seep::serde
