#ifndef SEEP_SERDE_FRAME_H_
#define SEEP_SERDE_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"

namespace seep::serde {

/// Bytes of the [length u64 | crc32c u32] header FramePayload prepends.
inline constexpr size_t kFrameHeaderBytes = 12;

/// Default ceiling on a frame's declared payload length. A frame header is
/// read before its payload exists in memory (the TCP transport streams
/// frames), so a corrupted or hostile length must be rejected *before*
/// anything is allocated from it; 64 MiB comfortably covers the largest
/// checkpoint the experiments ship while bounding the damage of a flipped
/// high bit in the length field.
inline constexpr uint64_t kDefaultMaxFramePayload = 64ull << 20;

/// The validated header of a frame: declared payload length and its crc32c.
struct FrameHeader {
  uint64_t payload_len = 0;
  uint32_t crc = 0;
};

/// Parses and validates a frame header from the first kFrameHeaderBytes of
/// `data`. Returns Corruption when fewer than kFrameHeaderBytes are present
/// or the declared payload length exceeds `max_payload` — checked before any
/// caller could allocate payload_len bytes.
[[nodiscard]]
Result<FrameHeader> ReadFrameHeader(const uint8_t* data, size_t size,
                                    uint64_t max_payload);

/// Wraps a payload in a [length | crc32c | payload] frame. Checkpoints cross
/// the (simulated or TCP) network framed so the receive path can verify
/// integrity.
std::vector<uint8_t> FramePayload(const std::vector<uint8_t>& payload);

/// Writes the header of a frame in place: `frame` holds kFrameHeaderBytes
/// of room followed by `payload_len` payload bytes. FramePayload and the
/// checkpoint frame encoder, which builds its payload inside the frame, both
/// seal through this.
void SealFrame(uint8_t* frame, size_t payload_len);

/// Validates a whole frame in place and returns its payload as a view into
/// `frame`. Returns Corruption on a truncated header, a declared length
/// exceeding `max_payload` or disagreeing with the frame's size, or a CRC
/// mismatch.
[[nodiscard]] Result<std::span<const uint8_t>> CheckFrame(
    const uint8_t* frame, size_t size,
    uint64_t max_payload = kDefaultMaxFramePayload);

/// CheckFrame, then a copy of the payload. The length checks run before the
/// payload is copied, so a corrupt length can never drive an allocation.
[[nodiscard]] Result<std::vector<uint8_t>> UnframePayload(
    const std::vector<uint8_t>& frame,
    uint64_t max_payload = kDefaultMaxFramePayload);

}  // namespace seep::serde

#endif  // SEEP_SERDE_FRAME_H_
