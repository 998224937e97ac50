#ifndef SEEP_RUNTIME_CKPT_PIPELINE_H_
#define SEEP_RUNTIME_CKPT_PIPELINE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/time.h"
#include "core/state.h"
#include "serde/decoder.h"
#include "serde/encoder.h"
#include "serde/frame.h"

namespace seep::runtime {

/// The asynchronous checkpoint pipeline's stages: a cheap synchronous
/// *capture* pauses the operator for microseconds, a deferred
/// *serialization* stage encodes/compresses/crc32c's the snapshot off the
/// processing path, and *chunked shipping* interleaves the frame with data
/// batches through the Transport seam, reassembled at the backup holder.
/// This header is Transport- and net-free by design: pipeline code must
/// never touch net/ directly (lint rule ckpt-worker-no-net).

/// The slice of one downstream replay buffer a capture covers, recorded as
/// positions instead of copied tuples: the live buffer is timestamp-sorted,
/// so (from_exclusive, back] names the captured suffix exactly, and the
/// tuples are materialized later.
struct BufferExtent {
  /// Materialize tuples with timestamp strictly above this (INT64_MIN on a
  /// full capture: the whole live region).
  int64_t from_exclusive = INT64_MIN;
  /// ...and at most this. INT64_MIN means the extent is empty.
  int64_t back = INT64_MIN;
  /// Tuples in the extent (a delta skips empty extents).
  size_t tuples = 0;
};

/// Stage-1 output: the checkpoint with everything *except* the buffer bytes
/// (`ckpt.buffer` stays empty until materialized), plus per-downstream
/// extents marking which buffered tuples belong to it. Capturing extents
/// instead of tuples is what removes the `c.buffer = buffer` deep copy from
/// the processing pause.
struct CheckpointCapture {
  core::StateCheckpoint ckpt;
  std::map<OperatorId, BufferExtent> extents;
  bool materialized = false;
};

/// Copies the captured buffer extents out of the live buffers into
/// `cap->ckpt.buffer`, producing exactly the checkpoint the old synchronous
/// capture built. Must run on the driver thread while `live` still covers
/// the extents (later trims only shrink the front, which is safe: trimmed
/// tuples are already covered downstream).
void MaterializeCaptureBuffer(const core::BufferState& live,
                              CheckpointCapture* cap);

/// What a kCheckpoint scheduler job carries between PrepareJob (capture) and
/// FinishJob (hand-off to the backup path). A synchronous checkpoint's
/// capture is materialized at capture time, before any trim can move the
/// live buffers; an asynchronous one is materialized when its
/// serialization is scheduled (CheckpointPlane::ShipAsync).
struct CheckpointWork {
  bool async = false;
  CheckpointCapture capture;
};

/// A checkpoint serialized into its frame: [length | crc32c | payload]
/// where the payload is the encoded checkpoint, block-compressed when that
/// made it smaller. The one checkpoint encoding on the wire, between
/// pipeline stages and in the durable log.
struct EncodedCkptFrame {
  std::vector<uint8_t> frame;
  uint64_t raw_bytes = 0;  // encoded payload size before compression
  bool compressed = false;
};

/// Ceiling on a checkpoint's declared uncompressed size (a chunk header's or
/// a log record's `raw_bytes`), checked before decompression allocates it.
/// It equals the frame ceiling: a checkpoint that ships raw (compression
/// off, or not smaller) carries its raw encoding as the frame payload,
/// which no receiver accepts above kDefaultMaxFramePayload. Holding the
/// compressed path to the same ceiling keeps compression from changing
/// which checkpoints can be restored, and the frame ceiling already covers
/// the largest checkpoint the experiments ship.
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
  SimTime captured_at = 0;
};

/// Stage 2: EncodeCheckpointFrame plus the identity `ckpt` carries — the
/// one way a checkpoint becomes a frame to ship (async captures, and every
/// materialized parcel the TCP backend puts on the wire).
SerializedCkptFrame SerializeCheckpoint(const core::StateCheckpoint& ckpt,
                                        bool compress);

/// The per-chunk header travelling with each slice of a serialized frame
/// (stage 3). Chunks of one (owner, seq) stream arrive in order on their
/// FIFO link; `index`/`count` let the holder detect loss or interleaving
/// corruption, and `raw_bytes`/`compressed` parameterize decompression.
struct CkptChunkHeader {
  InstanceId owner = kInvalidInstance;
  OperatorId owner_op = 0;
  InstanceId holder = kInvalidInstance;
  uint64_t seq = 0;
  uint32_t index = 0;
  uint32_t count = 0;
  uint64_t frame_bytes = 0;  // total size of the reassembled frame
  uint64_t raw_bytes = 0;    // payload size before compression
  bool compressed = false;

  bool operator==(const CkptChunkHeader&) const = default;
};

void EncodeChunkHeader(const CkptChunkHeader& h, serde::Encoder* enc);
[[nodiscard]] Result<CkptChunkHeader> DecodeChunkHeader(serde::Decoder* dec);

/// Holder-side reassembly of chunked checkpoint frames, keyed by
/// (owner, seq, holder). Returns the whole frame when the last chunk lands.
/// Malformed streams (index gap, byte overflow, absurd declared size) are
/// dropped wholesale — the owner's next checkpoint supersedes them, exactly
/// like a frame lost to a link failure.
class CkptChunkReassembler {
 public:
  std::optional<std::vector<uint8_t>> OnChunk(const CkptChunkHeader& h,
                                              const uint8_t* data, size_t n);

  /// Drops partial streams of `owner` at or below `seq` (a stored
  /// checkpoint supersedes everything it outranks).
  void ForgetThrough(InstanceId owner, uint64_t seq);

  /// Drops the partial stream `h` names, if any (its parcel was abandoned:
  /// an endpoint died, or a chunk failed validation).
  void Forget(const CkptChunkHeader& h);

  /// Drops every partial stream of `owner`, at any seq — the backup-delete
  /// path (Cluster::DeleteBackup), where a late-finishing stream must not
  /// resurrect a tombstoned instance.
  void ForgetOwner(InstanceId owner);

  size_t pending_streams() const { return pending_.size(); }

 private:
  struct Pending {
    uint32_t next_index = 0;
    uint32_t count = 0;
    uint64_t frame_bytes = 0;
    std::vector<uint8_t> frame;
  };
  // owner, seq, holder
  using Key = std::tuple<InstanceId, uint64_t, InstanceId>;
  std::map<Key, Pending> pending_;
};

}  // namespace seep::runtime

#endif  // SEEP_RUNTIME_CKPT_PIPELINE_H_
