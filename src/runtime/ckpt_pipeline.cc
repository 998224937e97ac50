#include "runtime/ckpt_pipeline.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/macros.h"
#include "serde/block_codec.h"
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
  out.captured_at = ckpt.taken_at;
  return out;
}

// ------------------------------------------------------------------- chunks

void EncodeChunkHeader(const CkptChunkHeader& h, serde::Encoder* enc) {
  enc->AppendFixed32(h.owner);
  enc->AppendFixed32(h.owner_op);
  enc->AppendFixed32(h.holder);
  enc->AppendVarint64(h.seq);
  enc->AppendVarint64(h.index);
  enc->AppendVarint64(h.count);
  enc->AppendVarint64(h.frame_bytes);
  enc->AppendVarint64(h.raw_bytes);
  enc->AppendU8(h.compressed ? 1 : 0);
}

[[nodiscard]] Result<CkptChunkHeader> DecodeChunkHeader(serde::Decoder* dec) {
  CkptChunkHeader h;
  SEEP_ASSIGN_OR_RETURN(h.owner, dec->ReadFixed32());
  SEEP_ASSIGN_OR_RETURN(h.owner_op, dec->ReadFixed32());
  SEEP_ASSIGN_OR_RETURN(h.holder, dec->ReadFixed32());
  SEEP_ASSIGN_OR_RETURN(h.seq, dec->ReadVarint64());
  uint64_t index, count;
  SEEP_ASSIGN_OR_RETURN(index, dec->ReadVarint64());
  SEEP_ASSIGN_OR_RETURN(count, dec->ReadVarint64());
  if (index > UINT32_MAX || count > UINT32_MAX) {
    return Status::Corruption("checkpoint chunk index out of range");
  }
  h.index = static_cast<uint32_t>(index);
  h.count = static_cast<uint32_t>(count);
  SEEP_ASSIGN_OR_RETURN(h.frame_bytes, dec->ReadVarint64());
  SEEP_ASSIGN_OR_RETURN(h.raw_bytes, dec->ReadVarint64());
  uint8_t compressed;
  SEEP_ASSIGN_OR_RETURN(compressed, dec->ReadU8());
  if (compressed > 1) {
    return Status::Corruption("checkpoint chunk compression flag invalid");
  }
  h.compressed = compressed != 0;
  return h;
}

namespace {
// Partial streams an overwhelmed or wedged holder keeps before evicting the
// oldest; each costs at most one frame of memory.
constexpr size_t kMaxPendingStreams = 64;
}  // namespace

std::optional<std::vector<uint8_t>> CkptChunkReassembler::OnChunk(
    const CkptChunkHeader& h, const uint8_t* data, size_t n) {
  if (h.count == 0 ||
      h.frame_bytes > serde::kDefaultMaxFramePayload + serde::kFrameHeaderBytes)
    return std::nullopt;
  const Key key{h.owner, h.seq, h.holder};
  auto it = pending_.find(key);
  if (it == pending_.end()) {
    if (h.index != 0) return std::nullopt;  // mid-stream chunk of a lost head
    while (pending_.size() >= kMaxPendingStreams) {
      pending_.erase(pending_.begin());
    }
    it = pending_.emplace(key, Pending{}).first;
    it->second.count = h.count;
    it->second.frame_bytes = h.frame_bytes;
    it->second.frame.reserve(h.frame_bytes);
  }
  Pending& p = it->second;
  if (h.index != p.next_index || h.count != p.count ||
      h.frame_bytes != p.frame_bytes || p.frame.size() + n > p.frame_bytes) {
    pending_.erase(it);  // corrupt stream: drop, next checkpoint supersedes
    return std::nullopt;
  }
  p.frame.insert(p.frame.end(), data, data + n);
  ++p.next_index;
  if (p.next_index < p.count) return std::nullopt;
  if (p.frame.size() != p.frame_bytes) {
    pending_.erase(it);
    return std::nullopt;
  }
  std::vector<uint8_t> frame = std::move(p.frame);
  pending_.erase(it);
  return frame;
}

void CkptChunkReassembler::ForgetThrough(InstanceId owner, uint64_t seq) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (std::get<0>(it->first) == owner && std::get<1>(it->first) <= seq) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void CkptChunkReassembler::Forget(const CkptChunkHeader& h) {
  pending_.erase(Key{h.owner, h.seq, h.holder});
}

void CkptChunkReassembler::ForgetOwner(InstanceId owner) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (std::get<0>(it->first) == owner) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace seep::runtime
