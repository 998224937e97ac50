// Tests for the checkpoint pipeline: CheckpointPlane's full and delta
// captures of a live instance's replay buffers, frame build round-trips
// through compression and framing (runtime/ckpt_pipeline), the frame
// decoder's prefix and bit-flip sweeps, and a short sim end-to-end run
// proving the async pipeline produces the synchronous baseline's results
// under a level-2 audit.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/query_graph.h"
#include "core/state.h"
#include "runtime/checkpoint_plane.h"
#include "runtime/ckpt_pipeline.h"
#include "runtime/cluster.h"
#include "runtime/operator_instance.h"
#include "serde/block_codec.h"
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

std::vector<uint8_t> EncodeDirect(const core::StateCheckpoint& c) {
  serde::Encoder enc;
  c.Encode(&enc);
  return std::move(enc).TakeBuffer();
}

std::vector<uint8_t> EncodeBuffer(const core::BufferState& b) {
  serde::Encoder enc;
  b.Encode(&enc);
  return std::move(enc).TakeBuffer();
}

// ------------------------------------------------------------------ capture

class PassThrough : public core::Operator {
 public:
  void Process(const core::Tuple& input, core::Collector* out) override {
    out->Emit(core::Tuple(input));
  }
};

/// One operator instance, not deployed, whose replay buffers a test sets
/// through Restore, and a CheckpointPlane bound to it.
struct LiveCapture {
  LiveCapture() {
    const OperatorId op = graph.AddOperator(
        "pass", [] { return std::make_unique<PassThrough>(); },
        /*stateful=*/false);
    ClusterConfig config;
    config.audit_level = verify::kAuditOff;
    cluster = std::make_unique<Cluster>(&graph, config);
    OperatorInstance::Params params;
    params.id = 11;
    params.op = op;
    params.spec = graph.Get(op);
    params.vm = 1;
    params.origin = 2;
    inst = std::make_unique<OperatorInstance>(cluster.get(), params);
    // Output clock 40 and MakeLive's buffers.
    core::StateCheckpoint base;
    FillHeader(&base);
    base.buffer = MakeLive();
    inst->Restore(base, /*inherit_origin=*/true);
    plane = std::make_unique<CheckpointPlane>(cluster.get(), inst.get());
  }

  core::QueryGraph graph;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<OperatorInstance> inst;
  std::unique_ptr<CheckpointPlane> plane;
};

TEST(CaptureTest, FullCaptureCopiesTheLiveBuffersWhole) {
  LiveCapture live;
  const core::StateCheckpoint full = live.plane->Capture(/*delta=*/false);
  EXPECT_FALSE(full.is_delta);
  EXPECT_EQ(EncodeBuffer(full.buffer),
            EncodeBuffer(live.inst->buffer_state()));
  // Empty downstream entries survive a full capture (restore recreates
  // them).
  EXPECT_EQ(full.buffer.buffers().size(), 3u);
  ASSERT_NE(full.buffer.Get(6), nullptr);
  EXPECT_TRUE(full.buffer.Get(6)->empty());
}

TEST(CaptureTest, DeltaCaptureTakesOnlyWhatWasNotShipped) {
  LiveCapture live;
  // Ships op 4 through 30, op 5 through 15 and op 6 (empty) through the
  // output clock.
  live.plane->Capture(/*delta=*/false);
  core::BufferState& buffers = live.inst->buffer_state();
  buffers.Append(4, MakeTuple(50, "epsilon"));
  buffers.Append(4, MakeTuple(60, "zeta"));
  buffers.Append(7, MakeTuple(45, "eta"));  // a downstream never shipped
  buffers.Trim(4, 20);  // op 4's front moves to 30
  buffers.Trim(5, 15);  // op 5 empties

  const core::StateCheckpoint delta = live.plane->Capture(/*delta=*/true);
  ASSERT_TRUE(delta.is_delta);
  // Op 4: only the tuples past 30; op 7: its whole buffer; ops 5 and 6
  // have nothing new and get no entry.
  EXPECT_EQ(delta.buffer.buffers().size(), 2u);
  ASSERT_NE(delta.buffer.Get(4), nullptr);
  ASSERT_EQ(delta.buffer.Get(4)->size(), 2u);
  EXPECT_EQ(delta.buffer.Get(4)->front().timestamp, 50);
  EXPECT_EQ(delta.buffer.Get(4)->back().timestamp, 60);
  ASSERT_NE(delta.buffer.Get(7), nullptr);
  ASSERT_EQ(delta.buffer.Get(7)->size(), 1u);
  EXPECT_EQ(delta.buffer.Get(7)->At(0).text, "eta");
  EXPECT_EQ(delta.buffer.Get(5), nullptr);
  EXPECT_EQ(delta.buffer.Get(6), nullptr);
  // Every live buffer's front, or out_clock + 1 for an empty one, so the
  // holder mirrors the trims.
  const std::map<OperatorId, int64_t> fronts{
      {4, 30}, {5, 41}, {6, 41}, {7, 45}};
  EXPECT_EQ(delta.buffer_front, fronts);

  // Nothing appended since: the next delta carries no tuple at all.
  const core::StateCheckpoint again = live.plane->Capture(/*delta=*/true);
  EXPECT_TRUE(again.buffer.buffers().empty());
  EXPECT_EQ(again.buffer_front, fronts);
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
  // A crc-valid frame whose block declares 2^40 raw bytes, as a parcel
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

// --------------------------------------------------------- sim end to end

using Counts = std::map<std::pair<int64_t, std::string>, int64_t>;

struct PipelineOutcome {
  Counts counts;
  uint64_t async_captures = 0;
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
  // Full audit with the abort-on-violation default: any violated invariant
  // kills the test.
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
  // serialization stage and their frames crossed the sim whole; nothing was
  // lost to corruption and nothing needed aborting in a failure-free run.
  EXPECT_EQ(sync.async_captures, 0u);
  EXPECT_GT(async.async_captures, 5u);
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
