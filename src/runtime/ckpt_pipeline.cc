#include "runtime/ckpt_pipeline.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/macros.h"
#include "serde/block_codec.h"
#include "serde/decoder.h"
#include "serde/encoder.h"
#include "serde/frame.h"

namespace seep::runtime {

EncodedCkptFrame EncodeCheckpointFrame(const core::StateCheckpoint& ckpt,
                                       bool compress) {
  serde::Encoder enc;
  ckpt.Encode(&enc);  // Encode reserves EncodedSize() exactly
  const std::vector<uint8_t>& raw = enc.buffer();
  EncodedCkptFrame out;
  out.raw_bytes = raw.size();
  // One pass: the payload is built in the frame, after room for the header.
  out.frame.resize(serde::kFrameHeaderBytes +
                   (compress ? serde::BlockCompressBound(raw.size())
                             : raw.size()));
  uint8_t* const payload = out.frame.data() + serde::kFrameHeaderBytes;
  size_t payload_len = raw.size();
  if (compress) {
    const size_t packed =
        serde::BlockCompress(raw.data(), raw.size(), payload);
    out.compressed = packed < raw.size();
    if (out.compressed) payload_len = packed;
  }
  if (!out.compressed) std::copy(raw.begin(), raw.end(), payload);
  out.frame.resize(serde::kFrameHeaderBytes + payload_len);
  serde::SealFrame(out.frame.data(), payload_len);
  return out;
}

[[nodiscard]] Result<core::StateCheckpoint> DecodeCheckpointFrame(
    const std::vector<uint8_t>& frame, uint64_t raw_bytes, bool compressed) {
  std::span<const uint8_t> payload;
  SEEP_ASSIGN_OR_RETURN(payload,
                        serde::CheckFrame(frame.data(), frame.size()));
  if (raw_bytes > kMaxCheckpointRawBytes) {
    return Status::Corruption("checkpoint raw size exceeds limit");
  }
  std::vector<uint8_t> decompressed;
  if (compressed) {
    SEEP_ASSIGN_OR_RETURN(decompressed,
                          serde::BlockDecompress(payload.data(),
                                                 payload.size(), raw_bytes));
    payload = decompressed;
  }
  if (payload.size() != raw_bytes) {
    return Status::Corruption("checkpoint frame size disagrees with header");
  }
  serde::Decoder dec(payload.data(), payload.size());
  return core::StateCheckpoint::Decode(&dec);
}

SerializedCkptFrame SerializeCheckpoint(const core::StateCheckpoint& ckpt,
                                        bool compress) {
  SerializedCkptFrame out;
  static_cast<EncodedCkptFrame&>(out) = EncodeCheckpointFrame(ckpt, compress);
  out.owner = ckpt.instance;
  out.owner_op = ckpt.op;
  out.seq = ckpt.seq;
  return out;
}

}  // namespace seep::runtime
