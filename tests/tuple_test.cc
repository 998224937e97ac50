// Wire-format tests for tuples and batches: exact roundtrips, size
// accounting (the network/CPU cost model), the encodings pinned against an
// Encoder-append reference, property sweeps, and truncation and bit-flip
// sweeps of the batch decoder.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/tuple.h"
#include "serde/decoder.h"
#include "serde/encoder.h"

namespace seep::core {
namespace {

Tuple Sample() {
  Tuple t;
  t.timestamp = 123456;
  t.key = 0xDEADBEEFCAFEull;
  t.origin = 42;
  t.event_time = SecondsToSim(3.5);
  t.ints = {-1, 0, 77, INT64_MAX};
  t.text = "hello world";
  t.latency_sample = false;
  return t;
}

TEST(TupleTest, RoundtripPreservesAllFields) {
  const Tuple t = Sample();
  serde::Encoder enc;
  t.Encode(&enc);
  serde::Decoder dec(enc.buffer());
  auto back = Tuple::Decode(&dec);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->timestamp, t.timestamp);
  EXPECT_EQ(back->key, t.key);
  EXPECT_EQ(back->origin, t.origin);
  EXPECT_EQ(back->event_time, t.event_time);
  EXPECT_EQ(back->ints, t.ints);
  EXPECT_EQ(back->text, t.text);
  EXPECT_EQ(back->latency_sample, t.latency_sample);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(TupleTest, SerializedSizeMatchesEncodedSize) {
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    Tuple t;
    t.timestamp = static_cast<int64_t>(rng.Next()) >> rng.NextBounded(40);
    t.key = rng.Next();
    t.origin = rng.Next();
    t.event_time = static_cast<SimTime>(rng.NextBounded(1u << 30));
    for (auto& v : t.ints) {
      v = static_cast<int64_t>(rng.Next()) >> rng.NextBounded(60);
    }
    t.text = std::string(rng.NextBounded(100), 'q');
    serde::Encoder enc;
    t.Encode(&enc);
    EXPECT_EQ(enc.size(), t.SerializedSize());
  }
}

TEST(TupleTest, BatchSizeSumsTuplesPlusHeader) {
  TupleBatch batch;
  batch.tuples.push_back(Sample());
  batch.tuples.push_back(Sample());
  EXPECT_EQ(batch.SerializedSize(), 16 + 2 * Sample().SerializedSize());
}

// The field-by-field Encoder appends Tuple::Write replaced: the reference
// the direct writer must match byte for byte.
void ReferenceEncode(const Tuple& t, serde::Encoder* enc) {
  enc->AppendVarintSigned64(t.timestamp);
  enc->AppendFixed64(t.key);
  enc->AppendFixed64(t.origin);
  enc->AppendVarintSigned64(t.event_time);
  for (int64_t v : t.ints) enc->AppendVarintSigned64(v);
  enc->AppendString(t.text);
  enc->AppendU8(t.latency_sample ? 1 : 0);
}

std::vector<uint8_t> ReferenceEncode(const TupleBatch& b) {
  serde::Encoder enc;
  enc.AppendFixed32(b.from);
  enc.AppendU8(b.replay ? 1 : 0);
  enc.AppendVarint64(b.fence_id);
  enc.AppendVarint64(b.tuples.size());
  for (const Tuple& t : b.tuples) ReferenceEncode(t, &enc);
  return std::move(enc).TakeBuffer();
}

// Varint edge values: the extremes, zero, and the zigzag boundaries where
// a signed value's encoding grows from one byte to two.
const int64_t kEdges[] = {std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max(),
                          0, 63, 64, -64, -65, -1, 8191, -8193};

std::vector<Tuple> EdgeTuples() {
  std::vector<Tuple> out;
  const size_t n = std::size(kEdges);
  size_t k = 0;
  for (size_t text_len : {0, 15, 16, 127, 128}) {
    for (size_t e = 0; e < n; ++e, ++k) {
      Tuple t;
      t.timestamp = kEdges[e];
      t.key = k % 2 == 0 ? 0 : UINT64_MAX - k;
      t.origin = k % 3 == 0 ? UINT64_MAX : k;
      t.event_time = kEdges[(e + 1) % n];
      for (size_t i = 0; i < t.ints.size(); ++i) {
        t.ints[i] = kEdges[(e + 2 + i) % n];
      }
      t.text = std::string(text_len, static_cast<char>('a' + k % 26));
      t.latency_sample = k % 2 == 1;
      out.push_back(std::move(t));
    }
  }
  return out;
}

void ExpectSameTuple(const Tuple& a, const Tuple& b) {
  EXPECT_EQ(a.timestamp, b.timestamp);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.origin, b.origin);
  EXPECT_EQ(a.event_time, b.event_time);
  EXPECT_EQ(a.ints, b.ints);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.latency_sample, b.latency_sample);
}

TEST(TuplePinTest, TupleEncodingMatchesTheAppendReference) {
  for (const Tuple& t : EdgeTuples()) {
    serde::Encoder direct, reference;
    t.Encode(&direct);
    ReferenceEncode(t, &reference);
    ASSERT_EQ(direct.buffer(), reference.buffer());
    EXPECT_EQ(direct.size(), t.SerializedSize());
    serde::Decoder dec(direct.buffer());
    auto back = Tuple::Decode(&dec);
    ASSERT_TRUE(back.ok());
    ExpectSameTuple(back.value(), t);
    EXPECT_TRUE(dec.AtEnd());
  }
}

TEST(TuplePinTest, BatchEncodingMatchesTheAppendReference) {
  const std::vector<Tuple> edges = EdgeTuples();
  for (size_t count : {size_t{0}, size_t{1}, size_t{127}, size_t{128},
                       edges.size()}) {
    TupleBatch batch;
    batch.from = count % 2 == 0 ? 7u : UINT32_MAX;
    batch.replay = count % 2 == 1;
    batch.fence_id = count == 128 ? UINT64_MAX : count;
    for (size_t i = 0; i < count; ++i) {
      batch.tuples.push_back(edges[i % edges.size()]);
    }
    serde::Encoder enc;
    enc.AppendU8(0xEE);  // Encode appends after whatever precedes it
    batch.Encode(&enc);
    std::vector<uint8_t> expected = {0xEE};
    const std::vector<uint8_t> ref = ReferenceEncode(batch);
    expected.insert(expected.end(), ref.begin(), ref.end());
    ASSERT_EQ(enc.buffer(), expected) << count;

    serde::Decoder dec(ref);
    auto back = TupleBatch::Decode(&dec);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->from, batch.from);
    EXPECT_EQ(back->replay, batch.replay);
    EXPECT_EQ(back->fence_id, batch.fence_id);
    ASSERT_EQ(back->tuples.size(), count);
    for (size_t i = 0; i < count; ++i) {
      ExpectSameTuple(back->tuples[i], batch.tuples[i]);
    }
    EXPECT_TRUE(dec.AtEnd());
  }
}

TupleBatch SweepBatch() {
  TupleBatch batch;
  batch.from = 12;
  batch.fence_id = 3;
  const std::vector<Tuple> edges = EdgeTuples();
  for (size_t i = 0; i < 6; ++i) batch.tuples.push_back(edges[i * 7]);
  return batch;
}

TEST(TupleBatchSweepTest, EveryStrictPrefixIsCorruption) {
  serde::Encoder enc;
  SweepBatch().Encode(&enc);
  const std::vector<uint8_t>& bytes = enc.buffer();
  for (size_t len = 0; len < bytes.size(); ++len) {
    serde::Decoder dec(bytes.data(), len);
    auto back = TupleBatch::Decode(&dec);
    ASSERT_FALSE(back.ok()) << "prefix of " << len << " bytes accepted";
    EXPECT_TRUE(back.status().IsCorruption());
  }
}

TEST(TupleBatchSweepTest, EverySingleBitFlipDecodesOrIsCorruption) {
  serde::Encoder enc;
  SweepBatch().Encode(&enc);
  const std::vector<uint8_t> bytes = enc.buffer();
  size_t rejected = 0;
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::vector<uint8_t> damaged = bytes;
    damaged[bit / 8] ^= uint8_t(1u << (bit % 8));
    serde::Decoder dec(damaged);
    // A value or Corruption; never a crash, an exception or an
    // allocation sized by the damaged bytes.
    auto back = TupleBatch::Decode(&dec);
    if (!back.ok()) {
      EXPECT_TRUE(back.status().IsCorruption());
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(TupleTest, DefaultsAreSane) {
  Tuple t;
  EXPECT_EQ(t.origin, kInvalidOrigin);
  EXPECT_TRUE(t.latency_sample);
  EXPECT_EQ(t.timestamp, 0);
  TupleBatch b;
  EXPECT_FALSE(b.replay);
  EXPECT_EQ(b.fence_id, 0u);
}

}  // namespace
}  // namespace seep::core
