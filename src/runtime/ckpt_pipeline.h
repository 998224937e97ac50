#ifndef SEEP_RUNTIME_CKPT_PIPELINE_H_
#define SEEP_RUNTIME_CKPT_PIPELINE_H_

#include <cstdint>
#include <span>
#include <vector>

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
/// rule ckpt-worker-no-net), and no other module learns how a frame is
/// compressed (lint rule ckpt-codec-in-pipeline).
///
/// A frame is [length u64 | crc32c u32 | payload], and the crc'd payload
/// starts with a head that says what it holds: [codec u8 | raw_bytes
/// varint | body]. Codec 0 is raw (the body is the encoded checkpoint) and
/// codec 1 block-compressed (the body is a serde::BlockCompress stream);
/// raw_bytes is the encoded checkpoint's size. A frame decodes alone: the
/// one checkpoint encoding on the wire, between pipeline stages and in the
/// durable log.

/// Ceiling on a checkpoint's declared uncompressed size (a frame head's
/// `raw_bytes`), checked before decompression allocates it. It equals the
/// frame ceiling: a checkpoint that ships raw (compression off, or not
/// smaller) carries its raw encoding in the frame payload, after a few head
/// bytes, and no receiver accepts a payload above kDefaultMaxFramePayload.
/// Over TCP the frame crosses inside one net frame that the sender's 64 MiB
/// queue cap bounds whole, so the largest checkpoint frame TCP carries is a
/// few dozen bytes under 64 MiB. Holding the compressed path to the same
/// ceiling keeps compression from changing which checkpoints can be
/// restored, and the frame ceiling already covers the largest checkpoint
/// the experiments ship.
inline constexpr uint64_t kMaxCheckpointRawBytes =
    serde::kDefaultMaxFramePayload;

/// What every production frame passes as `compress` below: compress when
/// that makes the frame smaller (the codec travels per frame, so
/// incompressible payloads ship raw). Tests pass false to build raw frames.
inline constexpr bool kCompressCheckpoints = true;

/// Encode, compress when smaller (and `compress` is set), write the head,
/// frame with crc32c. The only checkpoint frame encoder; it compresses
/// straight into the frame.
std::vector<uint8_t> EncodeCheckpointFrame(const core::StateCheckpoint& ckpt,
                                           bool compress);

/// Check the frame (length, crc32c) in place, read its head, decompress,
/// decode: the inverse of EncodeCheckpointFrame and the only checkpoint
/// frame decoder. A codec above 1, a `raw_bytes` above
/// kMaxCheckpointRawBytes, or a body that does not decode to exactly
/// `raw_bytes` bytes is Corruption.
[[nodiscard]] Result<core::StateCheckpoint> DecodeCheckpointFrame(
    std::span<const uint8_t> frame);

}  // namespace seep::runtime

#endif  // SEEP_RUNTIME_CKPT_PIPELINE_H_
