#ifndef SEEP_RUNTIME_CKPT_PIPELINE_H_
#define SEEP_RUNTIME_CKPT_PIPELINE_H_

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "core/state.h"
#include "serde/frame.h"

namespace seep::runtime {

/// The checkpoint frame codec. The asynchronous pipeline's deferred
/// *serialization* stage encodes, compresses and crc32c's a captured
/// checkpoint into one frame off the processing path; both backends hand
/// the frame over whole (over TCP as one kCheckpoint message), and the
/// durable log appends the same bytes. This header is Transport- and
/// net-free by design: pipeline code must never touch net/ directly (lint
/// rule ckpt-worker-no-net).

/// A checkpoint serialized into its frame: [length | crc32c | payload]
/// where the payload is the encoded checkpoint, block-compressed when that
/// made it smaller. The one checkpoint encoding on the wire, between
/// pipeline stages and in the durable log.
struct EncodedCkptFrame {
  std::vector<uint8_t> frame;
  uint64_t raw_bytes = 0;  // encoded payload size before compression
  bool compressed = false;
};

/// Ceiling on a checkpoint's declared uncompressed size (a parcel header's
/// or a log record's `raw_bytes`), checked before decompression allocates
/// it. It equals the frame ceiling: a checkpoint that ships raw (compression
/// off, or not smaller) carries its raw encoding as the frame payload, which
/// no receiver accepts above kDefaultMaxFramePayload. Over TCP the frame
/// crosses inside one net frame that the sender's 64 MiB queue cap bounds
/// whole, so the largest checkpoint frame TCP carries is a few dozen bytes
/// under 64 MiB. Holding the compressed path to the same ceiling keeps
/// compression from changing which checkpoints can be restored, and the
/// frame ceiling already covers the largest checkpoint the experiments
/// ship.
inline constexpr uint64_t kMaxCheckpointRawBytes =
    serde::kDefaultMaxFramePayload;

/// What every production frame passes as `compress` below: compress when
/// that makes the frame smaller (the flag travels per frame, so
/// incompressible payloads ship raw). Tests pass false to build raw frames.
inline constexpr bool kCompressCheckpoints = true;

/// Encode, compress when smaller (and `compress` is set), frame with
/// crc32c. The only checkpoint frame encoder; it compresses straight into
/// the frame.
EncodedCkptFrame EncodeCheckpointFrame(const core::StateCheckpoint& ckpt,
                                       bool compress);

/// Check the frame (length, crc32c) in place, decompress, decode: the
/// inverse of EncodeCheckpointFrame and the only checkpoint frame decoder.
/// A `raw_bytes` above kMaxCheckpointRawBytes is Corruption.
[[nodiscard]] Result<core::StateCheckpoint> DecodeCheckpointFrame(
    const std::vector<uint8_t>& frame, uint64_t raw_bytes, bool compressed);

/// Stage-2 output: one serialized checkpoint frame ready to ship, with the
/// identity of the checkpoint it carries.
struct SerializedCkptFrame : EncodedCkptFrame {
  InstanceId owner = kInvalidInstance;
  OperatorId owner_op = 0;
  uint64_t seq = 0;
};

/// Stage 2: EncodeCheckpointFrame plus the identity `ckpt` carries — the
/// one way a checkpoint becomes a frame to ship (async captures, and every
/// materialized parcel the TCP backend puts on the wire).
SerializedCkptFrame SerializeCheckpoint(const core::StateCheckpoint& ckpt,
                                        bool compress);

}  // namespace seep::runtime

#endif  // SEEP_RUNTIME_CKPT_PIPELINE_H_
