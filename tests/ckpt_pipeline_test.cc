// Tests for the asynchronous checkpoint pipeline (runtime/ckpt_pipeline):
// capture/materialize equivalence against the old synchronous snapshot,
// frame build round-trips through compression and framing, chunk-header
// codec and holder-side reassembly units, and a short sim end-to-end run
// proving the async pipeline produces the synchronous baseline's results
// under a level-2 audit.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/state.h"
#include "runtime/ckpt_pipeline.h"
#include "serde/block_codec.h"
#include "serde/decoder.h"
#include "serde/encoder.h"
#include "serde/frame.h"
#include "sps/sps.h"
#include "workloads/wordcount/wordcount.h"

namespace seep::runtime {
namespace {

core::Tuple MakeTuple(int64_t ts, const std::string& text) {
  core::Tuple t;
  t.timestamp = ts;
  t.key = static_cast<KeyHash>(ts) * 1315423911u;
  t.origin = 3;
  t.event_time = ts;
  t.text = text;
  return t;
}

// Live buffers with a multi-tuple downstream, a single-tuple one, and a
// deployed-but-empty one (full captures must keep the empty entry).
core::BufferState MakeLive() {
  core::BufferState live;
  live.Append(4, MakeTuple(10, "alpha"));
  live.Append(4, MakeTuple(20, "beta"));
  live.Append(4, MakeTuple(30, "gamma"));
  live.Append(5, MakeTuple(15, "delta"));
  live.buffers()[6];
  return live;
}

void FillHeader(core::StateCheckpoint* c) {
  c->op = 3;
  c->instance = 11;
  c->origin = 2;
  c->out_clock = 40;
  c->seq = 7;
  c->taken_at = 1234;
  c->positions.Set(1, 33);
  c->processing.Add(5, "value-a");
  c->processing.Add(9, "value-b");
}

// Mirrors CheckpointPlane::CaptureFull's extent construction.
CheckpointCapture FullCapture(const core::BufferState& live) {
  CheckpointCapture cap;
  FillHeader(&cap.ckpt);
  for (const auto& [op_id, tuples] : live.buffers()) {
    BufferExtent extent;
    extent.from_exclusive = INT64_MIN;
    extent.back = tuples.empty() ? INT64_MIN : tuples.back().timestamp;
    extent.tuples = tuples.size();
    cap.extents[op_id] = extent;
  }
  return cap;
}

// Mirrors CheckpointPlane::CaptureDelta: op 4 shipped through 20 (one
// unshipped tuple), op 5 never shipped (whole buffer), op 6 empty.
CheckpointCapture DeltaCapture(const core::BufferState& live) {
  CheckpointCapture cap;
  FillHeader(&cap.ckpt);
  cap.ckpt.is_delta = true;
  cap.ckpt.base_seq = 6;
  cap.ckpt.deleted_keys.push_back(77);
  std::map<OperatorId, int64_t> shipped{
      {4, 20}, {5, INT64_MIN}, {6, INT64_MIN}};
  for (const auto& [op_id, tuples] : live.buffers()) {
    cap.ckpt.buffer_front[op_id] =
        tuples.empty() ? 41 : tuples.front().timestamp;
    BufferExtent extent;
    extent.from_exclusive = shipped[op_id];
    if (!tuples.empty() && tuples.back().timestamp > extent.from_exclusive) {
      extent.back = tuples.back().timestamp;
      extent.tuples = static_cast<size_t>(
          tuples.end() - tuples.UpperBound(extent.from_exclusive));
    }
    cap.extents[op_id] = extent;
  }
  return cap;
}

std::vector<uint8_t> EncodeDirect(const core::StateCheckpoint& c) {
  serde::Encoder enc;
  c.Encode(&enc);
  return std::move(enc).TakeBuffer();
}

// ------------------------------------------------- capture / materialize

TEST(CaptureTest, MaterializedFullCaptureEqualsWholesaleCopy) {
  const core::BufferState live = MakeLive();
  CheckpointCapture cap = FullCapture(live);
  MaterializeCaptureBuffer(live, &cap);

  core::StateCheckpoint direct;
  FillHeader(&direct);
  direct.buffer = live;
  EXPECT_EQ(EncodeDirect(cap.ckpt), EncodeDirect(direct));
  // Empty downstream entries survive a full capture (restore recreates
  // them).
  EXPECT_EQ(cap.ckpt.buffer.buffers().size(), 3u);
}

TEST(CaptureTest, MaterializedDeltaCaptureTakesUnshippedSuffix) {
  const core::BufferState live = MakeLive();
  CheckpointCapture cap = DeltaCapture(live);
  MaterializeCaptureBuffer(live, &cap);

  // Op 4: only the tuple past the shipped position; op 5: everything;
  // op 6: no entry at all (deltas skip empty extents, like the old
  // MakeDeltaCheckpoint which only Append()ed real tuples).
  ASSERT_NE(cap.ckpt.buffer.Get(4), nullptr);
  ASSERT_EQ(cap.ckpt.buffer.Get(4)->size(), 1u);
  EXPECT_EQ(cap.ckpt.buffer.Get(4)->front().timestamp, 30);
  ASSERT_NE(cap.ckpt.buffer.Get(5), nullptr);
  EXPECT_EQ(cap.ckpt.buffer.Get(5)->size(), 1u);
  EXPECT_EQ(cap.ckpt.buffer.Get(6), nullptr);
}

TEST(CaptureTest, MaterializeIsIdempotent) {
  const core::BufferState live = MakeLive();
  CheckpointCapture cap = DeltaCapture(live);
  MaterializeCaptureBuffer(live, &cap);
  const std::vector<uint8_t> once = EncodeDirect(cap.ckpt);
  MaterializeCaptureBuffer(live, &cap);
  EXPECT_EQ(once, EncodeDirect(cap.ckpt));
}

// ---------------------------------------------------------- frame building

core::StateCheckpoint CompressibleSnapshot() {
  core::StateCheckpoint c;
  FillHeader(&c);
  for (int i = 0; i < 200; ++i) {
    c.processing.Add(100 + i, "window-count-payload-window-count-payload");
  }
  return c;
}

TEST(BuildFrameTest, CompressedFrameRoundTripsToTheSnapshot) {
  const std::vector<uint8_t> raw = EncodeDirect(CompressibleSnapshot());
  const SerializedCkptFrame frame =
      SerializeCheckpoint(CompressibleSnapshot(), /*compress=*/true);
  // The frame carries the identity of the checkpoint it encodes.
  EXPECT_EQ(frame.owner, 11u);
  EXPECT_EQ(frame.owner_op, 3u);
  EXPECT_EQ(frame.seq, 7u);
  EXPECT_EQ(frame.captured_at, 1234);
  EXPECT_TRUE(frame.compressed);
  EXPECT_EQ(frame.raw_bytes, raw.size());
  EXPECT_LT(frame.frame.size(), raw.size());  // compression actually won

  auto payload = serde::UnframePayload(frame.frame);
  ASSERT_TRUE(payload.ok());
  auto restored = serde::BlockDecompress(payload.value(), frame.raw_bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), raw);
}

TEST(BuildFrameTest, UncompressedFrameCarriesTheRawEncoding) {
  const std::vector<uint8_t> raw = EncodeDirect(CompressibleSnapshot());
  const SerializedCkptFrame frame =
      SerializeCheckpoint(CompressibleSnapshot(), /*compress=*/false);
  EXPECT_FALSE(frame.compressed);
  auto payload = serde::UnframePayload(frame.frame);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload.value(), raw);
}

TEST(BuildFrameTest, CorruptedFrameIsRejectedByTheCrc) {
  SerializedCkptFrame frame =
      SerializeCheckpoint(CompressibleSnapshot(), /*compress=*/true);
  frame.frame[frame.frame.size() / 2] ^= 0x40;
  EXPECT_FALSE(serde::UnframePayload(frame.frame).ok());
}

TEST(FrameCodecTest, DecodeInvertsEncodeWithAndWithoutCompression) {
  const core::StateCheckpoint snapshot = CompressibleSnapshot();
  for (bool compress : {false, true}) {
    const EncodedCkptFrame frame = EncodeCheckpointFrame(snapshot, compress);
    EXPECT_EQ(frame.compressed, compress);
    auto back =
        DecodeCheckpointFrame(frame.frame, frame.raw_bytes, frame.compressed);
    ASSERT_TRUE(back.ok()) << back.status().message();
    EXPECT_EQ(EncodeDirect(back.value()), EncodeDirect(snapshot));
  }
}

TEST(FrameCodecTest, DeclaredRawSizeMustMatch) {
  const core::StateCheckpoint snapshot = CompressibleSnapshot();
  for (bool compress : {false, true}) {
    const EncodedCkptFrame frame = EncodeCheckpointFrame(snapshot, compress);
    EXPECT_FALSE(DecodeCheckpointFrame(frame.frame, frame.raw_bytes + 1,
                                       frame.compressed)
                     .ok());
    EXPECT_FALSE(DecodeCheckpointFrame(frame.frame, frame.raw_bytes - 1,
                                       frame.compressed)
                     .ok());
  }
}

TEST(FrameCodecTest, DeclaredRawSizeAboveTheCeilingIsCorruption) {
  // A crc-valid frame whose block declares 2^40 raw bytes, as a chunk
  // header or log record may claim: rejected before anything is sized by
  // it, on both the compressed and the raw path.
  constexpr uint64_t kHuge = uint64_t{1} << 40;
  serde::Encoder block;
  block.AppendVarint64(kHuge);
  block.AppendU8(0x10);  // one literal
  block.AppendU8(0x42);
  const std::vector<uint8_t> frame = serde::FramePayload(block.buffer());
  for (bool compressed : {true, false}) {
    auto back = DecodeCheckpointFrame(frame, kHuge, compressed);
    ASSERT_FALSE(back.ok());
    EXPECT_TRUE(back.status().IsCorruption()) << back.status().message();
  }
  auto back = DecodeCheckpointFrame(frame, kMaxCheckpointRawBytes + 1, true);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsCorruption());
}

// A snapshot with processing entries, buffered tuples and delta fields, so
// the sweeps below cover every part of the checkpoint encoding.
core::StateCheckpoint SweepSnapshot() {
  core::StateCheckpoint c;
  FillHeader(&c);
  for (int i = 0; i < 24; ++i) c.processing.Add(100 + i, "count-17");
  c.buffer = MakeLive();
  c.deleted_keys = {5, 6};
  c.buffer_front[4] = 10;
  return c;
}

TEST(FrameCodecSweepTest, EveryStrictPrefixIsCorruption) {
  for (bool compress : {true, false}) {
    const EncodedCkptFrame frame = EncodeCheckpointFrame(SweepSnapshot(),
                                                         compress);
    ASSERT_EQ(frame.compressed, compress);
    for (size_t len = 0; len < frame.frame.size(); ++len) {
      const std::vector<uint8_t> cut(frame.frame.begin(),
                                     frame.frame.begin() + len);
      auto back = DecodeCheckpointFrame(cut, frame.raw_bytes, compress);
      ASSERT_FALSE(back.ok()) << "prefix of " << len << " bytes accepted";
      EXPECT_TRUE(back.status().IsCorruption());
    }
  }
}

TEST(FrameCodecSweepTest, EverySingleBitFlipDecodesOrIsCorruption) {
  for (bool compress : {true, false}) {
    const EncodedCkptFrame frame = EncodeCheckpointFrame(SweepSnapshot(),
                                                         compress);
    ASSERT_EQ(frame.compressed, compress);
    for (size_t bit = 0; bit < frame.frame.size() * 8; ++bit) {
      std::vector<uint8_t> damaged = frame.frame;
      damaged[bit / 8] ^= uint8_t(1u << (bit % 8));
      // The crc32c catches every single-bit flip of the payload, and the
      // length check every flip of the header's length.
      auto back = DecodeCheckpointFrame(damaged, frame.raw_bytes, compress);
      if (back.ok()) {
        EXPECT_EQ(EncodeDirect(back.value()), EncodeDirect(SweepSnapshot()));
      } else {
        EXPECT_TRUE(back.status().IsCorruption());
      }
    }
  }
}

// ---------------------------------------------------------- chunk header

/// A chunk header with every field set.
CkptChunkHeader FullChunkHeader() {
  CkptChunkHeader h;
  h.owner = 12;
  h.owner_op = 3;
  h.holder = 9;
  h.seq = 4242;
  h.index = 17;
  h.count = 33;
  h.frame_bytes = 5u << 20;
  h.raw_bytes = 9u << 20;
  h.compressed = true;
  return h;
}

TEST(ChunkHeaderTest, RoundTripsEveryField) {
  const CkptChunkHeader h = FullChunkHeader();

  serde::Encoder enc;
  EncodeChunkHeader(h, &enc);
  serde::Decoder dec(enc.buffer());
  auto out = DecodeChunkHeader(&dec);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().owner, h.owner);
  EXPECT_EQ(out.value().owner_op, h.owner_op);
  EXPECT_EQ(out.value().holder, h.holder);
  EXPECT_EQ(out.value().seq, h.seq);
  EXPECT_EQ(out.value().index, h.index);
  EXPECT_EQ(out.value().count, h.count);
  EXPECT_EQ(out.value().frame_bytes, h.frame_bytes);
  EXPECT_EQ(out.value().raw_bytes, h.raw_bytes);
  EXPECT_EQ(out.value().compressed, h.compressed);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(ChunkHeaderTest, TruncatedHeaderFails) {
  CkptChunkHeader h;
  h.owner = 1;
  serde::Encoder enc;
  EncodeChunkHeader(h, &enc);
  const std::vector<uint8_t>& whole = enc.buffer();
  const std::vector<uint8_t> bytes(whole.begin(), whole.end() - 3);
  serde::Decoder dec(bytes);
  EXPECT_FALSE(DecodeChunkHeader(&dec).ok());
}

TEST(ChunkHeaderSweepTest, EveryStrictPrefixIsCorruption) {
  serde::Encoder enc;
  EncodeChunkHeader(FullChunkHeader(), &enc);
  const std::vector<uint8_t>& bytes = enc.buffer();
  for (size_t len = 0; len < bytes.size(); ++len) {
    serde::Decoder dec(bytes.data(), len);
    auto back = DecodeChunkHeader(&dec);
    ASSERT_FALSE(back.ok()) << "prefix of " << len << " bytes accepted";
    EXPECT_TRUE(back.status().IsCorruption());
  }
}

TEST(ChunkHeaderSweepTest, EverySingleBitFlipDecodesOrIsCorruption) {
  serde::Encoder enc;
  EncodeChunkHeader(FullChunkHeader(), &enc);
  const std::vector<uint8_t> bytes = enc.buffer();
  size_t rejected = 0;
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::vector<uint8_t> damaged = bytes;
    damaged[bit / 8] ^= uint8_t(1u << (bit % 8));
    serde::Decoder dec(damaged);
    auto back = DecodeChunkHeader(&dec);
    if (!back.ok()) {
      EXPECT_TRUE(back.status().IsCorruption());
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(ChunkHeaderTest, CompressionFlagIsZeroOrOne) {
  CkptChunkHeader h;
  h.compressed = true;
  serde::Encoder enc;
  EncodeChunkHeader(h, &enc);
  std::vector<uint8_t> bytes = enc.buffer();
  bytes.back() = 3;  // the flag is the header's last byte
  serde::Decoder dec(bytes);
  EXPECT_FALSE(DecodeChunkHeader(&dec).ok());
}

// ------------------------------------------------------------ reassembly

std::vector<uint8_t> PatternBytes(size_t n, uint8_t seed) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(seed + i * 31);
  }
  return out;
}

CkptChunkHeader Chunk(InstanceId owner, uint64_t seq, uint32_t index,
                      uint32_t count, uint64_t frame_bytes) {
  CkptChunkHeader h;
  h.owner = owner;
  h.owner_op = 3;
  h.holder = 9;
  h.seq = seq;
  h.index = index;
  h.count = count;
  h.frame_bytes = frame_bytes;
  return h;
}

TEST(ReassemblerTest, SingleChunkCompletesImmediately) {
  CkptChunkReassembler r;
  const std::vector<uint8_t> frame = PatternBytes(100, 1);
  auto out = r.OnChunk(Chunk(1, 5, 0, 1, 100), frame.data(), frame.size());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, frame);
  EXPECT_EQ(r.pending_streams(), 0u);
}

TEST(ReassemblerTest, InOrderChunksReassembleExactly) {
  CkptChunkReassembler r;
  const std::vector<uint8_t> frame = PatternBytes(1000, 2);
  // Uneven slices, like the last short chunk of a real frame.
  const size_t cuts[] = {0, 400, 800, 1000};
  for (uint32_t i = 0; i < 3; ++i) {
    auto out = r.OnChunk(Chunk(1, 6, i, 3, frame.size()),
                         frame.data() + cuts[i], cuts[i + 1] - cuts[i]);
    if (i < 2) {
      EXPECT_FALSE(out.has_value());
      EXPECT_EQ(r.pending_streams(), 1u);
    } else {
      ASSERT_TRUE(out.has_value());
      EXPECT_EQ(*out, frame);
    }
  }
  EXPECT_EQ(r.pending_streams(), 0u);
}

TEST(ReassemblerTest, HeadlessMidStreamChunkIsIgnored) {
  CkptChunkReassembler r;
  const std::vector<uint8_t> bytes = PatternBytes(50, 3);
  // Index 1 with no stream open: the head was lost (e.g. holder restarted);
  // nothing is buffered and nothing completes.
  EXPECT_FALSE(
      r.OnChunk(Chunk(1, 7, 1, 2, 100), bytes.data(), bytes.size()));
  EXPECT_EQ(r.pending_streams(), 0u);
}

TEST(ReassemblerTest, IndexGapDropsTheStreamWholesale) {
  CkptChunkReassembler r;
  const std::vector<uint8_t> bytes = PatternBytes(40, 4);
  EXPECT_FALSE(r.OnChunk(Chunk(1, 8, 0, 3, 120), bytes.data(), bytes.size()));
  EXPECT_EQ(r.pending_streams(), 1u);
  // Chunk 1 lost; chunk 2 arrives. The stream is corrupt — drop it all.
  EXPECT_FALSE(r.OnChunk(Chunk(1, 8, 2, 3, 120), bytes.data(), bytes.size()));
  EXPECT_EQ(r.pending_streams(), 0u);
  // The superseding checkpoint's stream starts fresh and completes.
  const std::vector<uint8_t> next = PatternBytes(40, 5);
  EXPECT_FALSE(r.OnChunk(Chunk(1, 9, 0, 2, 80), next.data(), next.size()));
  auto out = r.OnChunk(Chunk(1, 9, 1, 2, 80), next.data(), next.size());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->size(), 80u);
}

TEST(ReassemblerTest, InconsistentDeclarationsDropTheStream) {
  CkptChunkReassembler r;
  const std::vector<uint8_t> bytes = PatternBytes(40, 6);
  EXPECT_FALSE(r.OnChunk(Chunk(1, 10, 0, 2, 80), bytes.data(), bytes.size()));
  // Same stream key, different declared frame size: corruption.
  EXPECT_FALSE(r.OnChunk(Chunk(1, 10, 1, 2, 99), bytes.data(), bytes.size()));
  EXPECT_EQ(r.pending_streams(), 0u);
}

TEST(ReassemblerTest, ByteOverflowDropsTheStream) {
  CkptChunkReassembler r;
  const std::vector<uint8_t> bytes = PatternBytes(60, 7);
  EXPECT_FALSE(r.OnChunk(Chunk(1, 11, 0, 2, 80), bytes.data(), bytes.size()));
  EXPECT_FALSE(r.OnChunk(Chunk(1, 11, 1, 2, 80), bytes.data(), bytes.size()));
  EXPECT_EQ(r.pending_streams(), 0u);
}

TEST(ReassemblerTest, AbsurdDeclaredFrameSizeIsRejectedUpFront) {
  CkptChunkReassembler r;
  const std::vector<uint8_t> bytes = PatternBytes(10, 8);
  EXPECT_FALSE(r.OnChunk(Chunk(1, 12, 0, 2, 1ull << 40), bytes.data(),
                         bytes.size()));
  EXPECT_EQ(r.pending_streams(), 0u);
}

TEST(ReassemblerTest, ForgetThroughDropsSupersededStreamsOnly) {
  CkptChunkReassembler r;
  const std::vector<uint8_t> bytes = PatternBytes(10, 9);
  r.OnChunk(Chunk(1, 3, 0, 2, 20), bytes.data(), bytes.size());
  r.OnChunk(Chunk(1, 5, 0, 2, 20), bytes.data(), bytes.size());
  r.OnChunk(Chunk(2, 3, 0, 2, 20), bytes.data(), bytes.size());
  EXPECT_EQ(r.pending_streams(), 3u);
  r.ForgetThrough(/*owner=*/1, /*seq=*/4);
  // Owner 1 seq 3 superseded; owner 1 seq 5 and owner 2 survive.
  EXPECT_EQ(r.pending_streams(), 2u);
  auto out = r.OnChunk(Chunk(1, 5, 1, 2, 20), bytes.data(), bytes.size());
  EXPECT_TRUE(out.has_value());
}

TEST(ReassemblerTest, PendingStreamsAreBounded) {
  CkptChunkReassembler r;
  const std::vector<uint8_t> bytes = PatternBytes(10, 10);
  for (InstanceId owner = 1; owner <= 100; ++owner) {
    r.OnChunk(Chunk(owner, 1, 0, 2, 20), bytes.data(), bytes.size());
  }
  EXPECT_LE(r.pending_streams(), 64u);
}

// --------------------------------------------------------- sim end to end

using Counts = std::map<std::pair<int64_t, std::string>, int64_t>;

struct PipelineOutcome {
  Counts counts;
  uint64_t async_captures = 0;
  uint64_t async_chunks = 0;
  uint64_t aborted = 0;
  uint64_t decode_failures = 0;
  uint64_t checkpoints_taken = 0;
  uint64_t raw_bytes = 0;
  uint64_t wire_bytes = 0;
};

PipelineOutcome RunWordCount(bool async) {
  workloads::wordcount::WordCountConfig wc;
  wc.rate_tuples_per_sec = 100;
  wc.vocabulary = 500;
  wc.window = SecondsToSim(10);
  wc.seed = 7;

  sps::SpsConfig config;
  config.cluster.checkpoint_interval = SecondsToSim(3);
  config.cluster.async_checkpoints = async;
  // Tiny chunks so multi-chunk shipping and reassembly actually run.
  config.cluster.checkpoint_chunk_bytes = 512;
  // Full audit with the abort-on-violation default: any violated invariant
  // (chunk-reassembly included) kills the test.
  config.cluster.audit_level = verify::kAuditExpensive;
  config.cluster.pool.target_size = 4;
  config.scaling.enabled = false;

  workloads::wordcount::WordCountQuery query =
      workloads::wordcount::BuildWordCountQuery(wc);
  auto results = query.results;
  sps::Sps sps(std::move(query.graph), config);
  EXPECT_TRUE(sps.Deploy().ok());
  sps.RunFor(35);

  PipelineOutcome out;
  out.counts = results->counts;
  out.async_captures = sps.metrics().async_ckpt_captures;
  out.async_chunks = sps.metrics().ckpt_chunks;
  out.aborted = sps.metrics().async_ckpts_aborted;
  out.decode_failures = sps.metrics().ckpt_decode_failures;
  out.checkpoints_taken = sps.metrics().checkpoints_taken;
  out.raw_bytes = sps.metrics().ckpt_raw_bytes;
  out.wire_bytes = sps.metrics().ckpt_wire_bytes;
  return out;
}

TEST(AsyncPipelineEndToEnd, MatchesSynchronousResultsUnderFullAudit) {
  const PipelineOutcome sync = RunWordCount(false);
  const PipelineOutcome async = RunWordCount(true);

  // The async pipeline really ran: captures went through the deferred
  // serialization stage and frames arrived in (multiple) chunks; nothing
  // was lost to corruption and nothing needed aborting in a failure-free
  // run.
  EXPECT_EQ(sync.async_captures, 0u);
  EXPECT_GT(async.async_captures, 5u);
  EXPECT_GT(async.async_chunks, async.async_captures);
  EXPECT_EQ(async.aborted, 0u);
  EXPECT_EQ(async.decode_failures, 0u);
  EXPECT_GT(async.checkpoints_taken, 0u);

  // Compression earned its place on the wire.
  EXPECT_GT(async.raw_bytes, 0u);
  EXPECT_LT(async.wire_bytes, async.raw_bytes);

  // Same results: windows are event-time keyed, so moving serialization off
  // the processing path cannot change their contents.
  EXPECT_FALSE(sync.counts.empty());
  EXPECT_EQ(sync.counts, async.counts);
}

}  // namespace
}  // namespace seep::runtime
