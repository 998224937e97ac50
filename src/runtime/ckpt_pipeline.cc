#include "runtime/ckpt_pipeline.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "serde/block_codec.h"
#include "serde/decoder.h"
#include "serde/encoder.h"
#include "serde/frame.h"

namespace seep::runtime {
namespace {

// The head's codec byte.
constexpr uint8_t kCodecRaw = 0;
constexpr uint8_t kCodecBlock = 1;

}  // namespace

std::vector<uint8_t> EncodeCheckpointFrame(const core::StateCheckpoint& ckpt,
                                           bool compress) {
  serde::Encoder enc;
  ckpt.Encode(&enc);  // Encode reserves EncodedSize() exactly
  const std::vector<uint8_t>& raw = enc.buffer();
  const size_t head = 1 + serde::Encoder::VarintSize(raw.size());
  // One pass: the body is built in the frame, after room for the frame
  // header and the head.
  std::vector<uint8_t> frame(
      serde::kFrameHeaderBytes + head +
      (compress ? serde::BlockCompressBound(raw.size()) : raw.size()));
  uint8_t* const payload = frame.data() + serde::kFrameHeaderBytes;
  uint8_t* const body = payload + head;
  uint8_t codec = kCodecRaw;
  size_t body_len = raw.size();
  if (compress) {
    const size_t packed = serde::BlockCompress(raw.data(), raw.size(), body);
    if (packed < raw.size()) {
      codec = kCodecBlock;
      body_len = packed;
    }
  }
  if (codec == kCodecRaw) std::copy(raw.begin(), raw.end(), body);
  serde::Encoder::WriteVarint64(serde::Encoder::WriteU8(payload, codec),
                                raw.size());
  frame.resize(serde::kFrameHeaderBytes + head + body_len);
  serde::SealFrame(frame.data(), head + body_len);
  return frame;
}

[[nodiscard]] Result<core::StateCheckpoint> DecodeCheckpointFrame(
    std::span<const uint8_t> frame) {
  std::span<const uint8_t> payload;
  SEEP_ASSIGN_OR_RETURN(payload,
                        serde::CheckFrame(frame.data(), frame.size()));
  serde::Decoder head(payload.data(), payload.size());
  SEEP_ASSIGN_OR_RETURN(const uint8_t codec, head.ReadU8());
  SEEP_ASSIGN_OR_RETURN(const uint64_t raw_bytes, head.ReadVarint64());
  if (codec > kCodecBlock) {
    return Status::Corruption("checkpoint frame codec invalid");
  }
  if (raw_bytes > kMaxCheckpointRawBytes) {
    return Status::Corruption("checkpoint raw size exceeds limit");
  }
  std::span<const uint8_t> body = payload.subspan(head.position());
  std::vector<uint8_t> decompressed;
  if (codec == kCodecBlock) {
    SEEP_ASSIGN_OR_RETURN(decompressed,
                          serde::BlockDecompress(body.data(), body.size(),
                                                 raw_bytes));
    body = decompressed;
  }
  if (body.size() != raw_bytes) {
    return Status::Corruption("checkpoint frame size disagrees with head");
  }
  serde::Decoder dec(body.data(), body.size());
  return core::StateCheckpoint::Decode(&dec);
}

}  // namespace seep::runtime
