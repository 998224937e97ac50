// Unit and property tests for the paper's state model (§3.1) and the
// partition/merge primitives (Algorithm 2 and the §3.3 merge extension).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/key_range.h"
#include "core/state.h"
#include "core/state_ops.h"

namespace seep::core {
namespace {

// ---------------------------------------------------------------- KeyRange

TEST(KeyRangeTest, FullRangeContainsEverything) {
  const KeyRange full = KeyRange::Full();
  EXPECT_TRUE(full.Contains(0));
  EXPECT_TRUE(full.Contains(UINT64_MAX));
  EXPECT_TRUE(full.Contains(1ull << 63));
}

TEST(KeyRangeTest, SplitOneIsIdentity) {
  const KeyRange r{100, 200};
  const auto parts = r.SplitEven(1);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], r);
}

class KeyRangeSplitTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(KeyRangeSplitTest, SplitCoversExactlyWithoutOverlap) {
  const uint32_t n = GetParam();
  const KeyRange full = KeyRange::Full();
  const auto parts = full.SplitEven(n);
  ASSERT_EQ(parts.size(), n);
  EXPECT_EQ(parts.front().lo, full.lo);
  EXPECT_EQ(parts.back().hi, full.hi);
  for (size_t i = 1; i < parts.size(); ++i) {
    EXPECT_EQ(parts[i - 1].hi + 1, parts[i].lo) << "gap or overlap at " << i;
  }
  // Every part is non-empty and parts are balanced within one key.
  for (const auto& p : parts) EXPECT_LE(p.lo, p.hi);
}

INSTANTIATE_TEST_SUITE_P(Counts, KeyRangeSplitTest,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 16, 64, 100));

TEST(KeyRangeTest, SplitAssignsEveryKeyToExactlyOnePart) {
  Rng rng(77);
  const auto parts = KeyRange::Full().SplitEven(7);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t key = rng.Next();
    int owners = 0;
    for (const auto& p : parts) owners += p.Contains(key);
    EXPECT_EQ(owners, 1);
  }
}

TEST(KeyRangeTest, MergeAdjacentInvertsSplit) {
  const KeyRange r{1000, 99999};
  const auto parts = r.SplitEven(2);
  EXPECT_EQ(KeyRange::MergeAdjacent(parts[0], parts[1]), r);
}

// --------------------------------------------------------- ProcessingState

TEST(ProcessingStateTest, FilterByRangePartitionsEntries) {
  ProcessingState state;
  state.Add(10, "a");
  state.Add(1ull << 63, "b");
  state.Add(UINT64_MAX, "c");
  const auto parts = KeyRange::Full().SplitEven(2);
  const ProcessingState lo = state.FilterByRange(parts[0]);
  const ProcessingState hi = state.FilterByRange(parts[1]);
  EXPECT_EQ(lo.size(), 1u);
  EXPECT_EQ(hi.size(), 2u);
  EXPECT_EQ(lo.size() + hi.size(), state.size());
}

TEST(ProcessingStateTest, ByteSizeTracksContent) {
  ProcessingState state;
  EXPECT_EQ(state.ByteSize(), 0u);
  state.Add(1, std::string(100, 'x'));
  EXPECT_GE(state.ByteSize(), 100u);
}

TEST(ProcessingStateTest, SerdeRoundtrip) {
  ProcessingState state;
  state.Add(42, "hello");
  state.Add(43, std::string("\0\1\2", 3));
  serde::Encoder enc;
  state.Encode(&enc);
  serde::Decoder dec(enc.buffer());
  auto back = ProcessingState::Decode(&dec);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 2u);
  EXPECT_EQ(back.value().entries()[0].second, "hello");
  EXPECT_EQ(back.value().entries()[1].second, std::string("\0\1\2", 3));
}

// ----------------------------------------------------------- InputPositions

TEST(InputPositionsTest, AdvanceDetectsDuplicates) {
  InputPositions pos;
  EXPECT_TRUE(pos.Advance(1, 10));
  EXPECT_FALSE(pos.Advance(1, 10));  // duplicate
  EXPECT_FALSE(pos.Advance(1, 5));   // older duplicate
  EXPECT_TRUE(pos.Advance(1, 11));
  EXPECT_TRUE(pos.Advance(2, 1));  // independent origin
  EXPECT_EQ(pos.Get(1), 11);
  EXPECT_EQ(pos.Get(99), -1);
}

TEST(InputPositionsTest, BoundsCombine) {
  InputPositions a, b;
  a.Set(1, 10);
  a.Set(2, 5);
  b.Set(1, 7);
  b.Set(3, 9);
  InputPositions lower = a;
  lower.LowerBoundWith(b);
  EXPECT_EQ(lower.Get(1), 7);
  EXPECT_EQ(lower.Get(2), 5);
  EXPECT_EQ(lower.Get(3), 9);
  InputPositions upper = a;
  upper.UpperBoundWith(b);
  EXPECT_EQ(upper.Get(1), 10);
}

// -------------------------------------------------------------- BufferState

Tuple MakeTuple(int64_t ts, KeyHash key, SimTime event_time = 0) {
  Tuple t;
  t.timestamp = ts;
  t.key = key;
  t.event_time = event_time;
  return t;
}

TEST(BufferStateTest, TrimDropsPrefixByTimestamp) {
  BufferState buffer;
  for (int64_t ts = 1; ts <= 10; ++ts) buffer.Append(5, MakeTuple(ts, 0));
  EXPECT_EQ(buffer.Trim(5, 4), 4u);
  ASSERT_NE(buffer.Get(5), nullptr);
  EXPECT_EQ(buffer.Get(5)->size(), 6u);
  EXPECT_EQ(buffer.Get(5)->front().timestamp, 5);
  EXPECT_EQ(buffer.Trim(5, 0), 0u);
  EXPECT_EQ(buffer.Trim(99, 100), 0u);  // unknown downstream
}

TEST(BufferStateTest, TrimByEventTime) {
  BufferState buffer;
  for (int64_t i = 0; i < 10; ++i) {
    buffer.Append(1, MakeTuple(i, 0, i * kMicrosPerSecond));
  }
  EXPECT_EQ(buffer.TrimByEventTime(5 * kMicrosPerSecond), 5u);
  EXPECT_EQ(buffer.TotalTuples(), 5u);
}

TEST(BufferStateTest, SerdeRoundtrip) {
  BufferState buffer;
  Tuple t = MakeTuple(7, 42, 123);
  t.text = "payload";
  t.origin = 9;
  buffer.Append(3, t);
  serde::Encoder enc;
  buffer.Encode(&enc);
  serde::Decoder dec(enc.buffer());
  auto back = BufferState::Decode(&dec);
  ASSERT_TRUE(back.ok());
  ASSERT_NE(back.value().Get(3), nullptr);
  EXPECT_EQ(back.value().Get(3)->At(0).text, "payload");
  EXPECT_EQ(back.value().Get(3)->At(0).origin, 9u);
}

TEST(BufferStateTest, AppendCopiesTheTuple) {
  BufferState buffer;
  const std::string text(64, 'w');  // past the short-string buffer
  Tuple kept = MakeTuple(1, 7);
  kept.text = text;
  buffer.Append(3, kept);
  EXPECT_EQ(kept.text, text);
  EXPECT_EQ(buffer.Get(3)->At(0).text, text);
  EXPECT_EQ(buffer.Get(3)->size(), 1u);
  EXPECT_EQ(buffer.Get(3)->ByteSize(), kept.SerializedSize());
  EXPECT_EQ(buffer.ByteSize(), kept.SerializedSize());
}

// One downstream buffer holding tuples stamped `first` then `second`.
std::vector<uint8_t> EncodeTwoTupleBuffer(int64_t first, int64_t second) {
  serde::Encoder enc;
  enc.AppendVarint64(1);  // buffers
  enc.AppendFixed32(4);   // downstream op
  enc.AppendVarint64(2);  // tuples
  MakeTuple(first, 1).Encode(&enc);
  MakeTuple(second, 2).Encode(&enc);
  return enc.buffer();
}

TEST(BufferStateTest, DecodeRejectsTimestampsThatGoBackwards) {
  // Trims binary-search a buffer by timestamp, so a decoded buffer that
  // goes backwards would be trimmed wrongly.
  const std::vector<uint8_t> backwards = EncodeTwoTupleBuffer(9, 3);
  serde::Decoder dec(backwards);
  auto back = BufferState::Decode(&dec);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsCorruption()) << back.status().message();

  // Equal timestamps stay legal, as Append allows them.
  const std::vector<uint8_t> level = EncodeTwoTupleBuffer(9, 9);
  serde::Decoder level_dec(level);
  auto same = BufferState::Decode(&level_dec);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same.value().Get(4)->size(), 2u);
}

TEST(BufferStatePinTest, EncodingMatchesTheAppendReference) {
  // Edge values per field (extremes, zero, the zigzag one-to-two-byte
  // boundaries) and texts around the one-byte length limits, over three
  // downstream buffers, one of them trimmed and one empty.
  const int64_t edges[] = {INT64_MIN, INT64_MAX, 0, 63, 64, -64, -65};
  BufferState buffer;
  buffer.buffers()[9];
  // What was appended, trimmed alike: β's own reads decode β's bytes.
  std::map<OperatorId, std::vector<Tuple>> appended{{9, {}}};
  int64_t ts = INT64_MIN;
  size_t k = 0;
  for (OperatorId op : {2u, 5u}) {
    for (size_t text_len : {0, 15, 16, 127, 128}) {
      for (int64_t e : edges) {
        Tuple t;
        t.timestamp = ts;
        ts = ts == INT64_MIN ? -64 : ts + 1;
        t.key = k++ % 2 == 0 ? 0 : UINT64_MAX;
        t.origin = k;
        t.event_time = e;
        t.ints = {e, -1, INT64_MAX, static_cast<int64_t>(k)};
        t.text = std::string(text_len, 'w');
        t.latency_sample = k % 3 != 0;
        buffer.Append(op, t);
        appended[op].push_back(t);
      }
    }
  }
  ASSERT_EQ(buffer.Trim(5, -20), 11u);
  std::vector<Tuple>& trimmed = appended[5];
  trimmed.erase(trimmed.begin(), trimmed.begin() + 11);
  ASSERT_EQ(trimmed.front().timestamp, -19);

  serde::Encoder reference;
  reference.AppendVarint64(appended.size());
  for (const auto& [op, tuples] : appended) {
    reference.AppendFixed32(op);
    reference.AppendVarint64(tuples.size());
    for (const Tuple& t : tuples) {
      reference.AppendVarintSigned64(t.timestamp);
      reference.AppendFixed64(t.key);
      reference.AppendFixed64(t.origin);
      reference.AppendVarintSigned64(t.event_time);
      for (int64_t v : t.ints) reference.AppendVarintSigned64(v);
      reference.AppendString(t.text);
      reference.AppendU8(t.latency_sample ? 1 : 0);
    }
  }
  serde::Encoder enc;
  buffer.Encode(&enc);
  ASSERT_EQ(enc.buffer(), reference.buffer());
  EXPECT_EQ(enc.size(), buffer.EncodedSize());

  serde::Decoder dec(enc.buffer());
  auto back = BufferState::Decode(&dec);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(dec.AtEnd());
  serde::Encoder again;
  back.value().Encode(&again);
  EXPECT_EQ(again.buffer(), enc.buffer());
  EXPECT_EQ(back.value().ByteSize(), buffer.ByteSize());
}

// ------------------------------------------------------------- RoutingState

TEST(RoutingStateTest, RoutesByKeyInterval) {
  RoutingState routing;
  const auto parts = KeyRange::Full().SplitEven(2);
  routing.SetRoutes(7, {{parts[0], 100}, {parts[1], 101}});
  EXPECT_EQ(routing.RouteKey(7, 0), 100u);
  EXPECT_EQ(routing.RouteKey(7, UINT64_MAX), 101u);
  EXPECT_EQ(routing.RouteKey(8, 0), kInvalidInstance);
}

TEST(RoutingStateTest, ReplacingRoutesTakesEffect) {
  RoutingState routing;
  routing.SetRoutes(1, {{KeyRange::Full(), 10}});
  EXPECT_EQ(routing.RouteKey(1, 5), 10u);
  routing.SetRoutes(1, {{KeyRange::Full(), 20}});
  EXPECT_EQ(routing.RouteKey(1, 5), 20u);
}

// --------------------------------------------------------- StateCheckpoint

StateCheckpoint MakeCheckpoint(uint64_t seed, size_t entries) {
  Rng rng(seed);
  StateCheckpoint c;
  c.op = 3;
  c.instance = 12;
  c.origin = 99;
  c.out_clock = 1234;
  c.seq = 5;
  c.taken_at = SecondsToSim(10);
  c.positions.Set(1, 100);
  c.positions.Set(2, 200);
  for (size_t i = 0; i < entries; ++i) {
    c.processing.Add(rng.Next(), "value-" + std::to_string(i));
  }
  Tuple t = MakeTuple(1000, rng.Next());
  t.origin = 99;
  c.buffer.Append(4, t);
  return c;
}

TEST(StateCheckpointTest, WireRoundtripPreservesEverything) {
  const StateCheckpoint c = MakeCheckpoint(1, 50);
  serde::Encoder enc;
  c.Encode(&enc);
  serde::Decoder dec(enc.buffer());
  auto back = StateCheckpoint::Decode(&dec);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->op, c.op);
  EXPECT_EQ(back->instance, c.instance);
  EXPECT_EQ(back->origin, c.origin);
  EXPECT_EQ(back->out_clock, c.out_clock);
  EXPECT_EQ(back->seq, c.seq);
  EXPECT_EQ(back->positions.Get(1), 100);
  EXPECT_EQ(back->processing.size(), 50u);
  EXPECT_EQ(back->buffer.TotalTuples(), 1u);
}

// A delta checkpoint with two downstream buffers of six tuples each, so the
// sweeps below reach every field StateCheckpoint::Decode reads.
std::vector<uint8_t> SweepCheckpointBytes() {
  StateCheckpoint c = MakeCheckpoint(3, 4);
  for (OperatorId op : {4u, 7u}) {
    for (int64_t ts = 2000; ts < 2006; ++ts) {
      Tuple t = MakeTuple(ts, static_cast<KeyHash>(ts * op), ts);
      t.origin = 99;
      t.text = "w" + std::to_string(ts % 97);
      c.buffer.Append(op, std::move(t));
    }
  }
  c.is_delta = true;
  c.base_seq = 4;
  c.deleted_keys = {11, 12};
  c.buffer_front[4] = 1000;
  c.buffer_front[7] = 2000;
  serde::Encoder enc;
  c.Encode(&enc);
  return enc.buffer();
}

bool BuffersSorted(const StateCheckpoint& c) {
  for (const auto& [op, tuples] : c.buffer.buffers()) {
    for (size_t i = 1; i < tuples.size(); ++i) {
      if (tuples.At(i).timestamp < tuples.At(i - 1).timestamp) return false;
    }
  }
  return true;
}

TEST(StateCheckpointSweepTest, EveryStrictPrefixIsCorruption) {
  const std::vector<uint8_t> bytes = SweepCheckpointBytes();
  for (size_t len = 0; len < bytes.size(); ++len) {
    serde::Decoder dec(bytes.data(), len);
    auto back = StateCheckpoint::Decode(&dec);
    ASSERT_FALSE(back.ok()) << "prefix of " << len << " bytes accepted";
    EXPECT_TRUE(back.status().IsCorruption());
  }
}

TEST(StateCheckpointSweepTest, EverySingleBitFlipDecodesSortedOrIsCorruption) {
  // The payload behind a valid crc32c: a flip the checksum would catch is
  // still fed to the decoder, which must return a checkpoint whose buffers
  // the trims can binary-search, or Corruption; never abort.
  const std::vector<uint8_t> bytes = SweepCheckpointBytes();
  size_t rejected = 0;
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::vector<uint8_t> damaged = bytes;
    damaged[bit / 8] ^= uint8_t(1u << (bit % 8));
    serde::Decoder dec(damaged);
    auto back = StateCheckpoint::Decode(&dec);
    if (back.ok()) {
      EXPECT_TRUE(BuffersSorted(back.value())) << "bit " << bit;
    } else {
      EXPECT_TRUE(back.status().IsCorruption());
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

// ------------------------------------------------ Partition/Merge (Alg. 2)

TEST(StateOpsTest, ChooseBackupIsDeterministicAndInRange) {
  const std::vector<InstanceId> upstream = {5, 6, 7};
  const InstanceId chosen = ChooseBackupInstance(42, upstream);
  EXPECT_EQ(chosen, ChooseBackupInstance(42, upstream));
  EXPECT_TRUE(std::find(upstream.begin(), upstream.end(), chosen) !=
              upstream.end());
}

TEST(StateOpsTest, ChooseBackupSpreadsLoad) {
  const std::vector<InstanceId> upstream = {1, 2, 3, 4};
  std::map<InstanceId, int> counts;
  for (InstanceId owner = 0; owner < 400; ++owner) {
    ++counts[ChooseBackupInstance(owner, upstream)];
  }
  for (const auto& [holder, n] : counts) {
    EXPECT_GT(n, 50) << "holder " << holder << " underloaded";
  }
}

class PartitionCheckpointTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PartitionCheckpointTest, PartitionPreservesEveryEntryExactlyOnce) {
  const uint32_t pi = GetParam();
  const StateCheckpoint c = MakeCheckpoint(3, 500);
  auto parts = PartitionCheckpoint(c, pi);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), pi);

  size_t total_entries = 0;
  size_t total_buffer = 0;
  for (uint32_t i = 0; i < pi; ++i) {
    const StateCheckpoint& part = (*parts)[i];
    total_entries += part.processing.size();
    total_buffer += part.buffer.TotalTuples();
    // Algorithm 2 line 6: positions copied to every partition.
    EXPECT_EQ(part.positions.Get(1), c.positions.Get(1));
    // Every entry lies in its partition's range.
    for (const auto& [key, value] : part.processing.entries()) {
      EXPECT_TRUE(part.key_range.Contains(key));
    }
  }
  EXPECT_EQ(total_entries, c.processing.size());
  // Algorithm 2 line 7: buffer state goes to the first partition only,
  // which also inherits the parent's stream identity.
  EXPECT_EQ(total_buffer, c.buffer.TotalTuples());
  EXPECT_EQ((*parts)[0].buffer.TotalTuples(), c.buffer.TotalTuples());
  EXPECT_EQ((*parts)[0].origin, c.origin);
  EXPECT_EQ((*parts)[0].out_clock, c.out_clock);
  if (pi > 1) {
    EXPECT_EQ((*parts)[1].origin, kInvalidOrigin);
  }
}

INSTANTIATE_TEST_SUITE_P(Parallelism, PartitionCheckpointTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

TEST(StateOpsTest, PartitionThenMergeIsIdentityOnState) {
  const StateCheckpoint c = MakeCheckpoint(4, 300);
  auto parts = PartitionCheckpoint(c, 4);
  ASSERT_TRUE(parts.ok());
  auto merged = MergeCheckpoints(*parts);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->key_range, c.key_range);
  EXPECT_EQ(merged->processing.size(), c.processing.size());
  EXPECT_EQ(merged->positions.Get(1), c.positions.Get(1));
  EXPECT_EQ(merged->positions.Get(2), c.positions.Get(2));
  EXPECT_EQ(merged->buffer.TotalTuples(), c.buffer.TotalTuples());
  // Entry multisets match.
  auto key_of = [](const auto& e) { return e.first; };
  std::multiset<KeyHash> original, roundtrip;
  for (const auto& e : c.processing.entries()) original.insert(key_of(e));
  for (const auto& e : merged->processing.entries()) {
    roundtrip.insert(key_of(e));
  }
  EXPECT_EQ(original, roundtrip);
}

TEST(StateOpsTest, PartitionRejectsBadArguments) {
  const StateCheckpoint c = MakeCheckpoint(5, 10);
  EXPECT_FALSE(PartitionCheckpoint(c, 0).ok());
  // Ranges not spanning the checkpoint range.
  EXPECT_FALSE(
      PartitionCheckpointByRanges(c, {{0, 1000}}).ok());
  // Non-contiguous ranges.
  EXPECT_FALSE(PartitionCheckpointByRanges(
                   c, {{0, 10}, {12, UINT64_MAX}})
                   .ok());
}

TEST(StateOpsTest, BalancedSplitEqualisesEntryCounts) {
  // Entries concentrated in the lowest 1% of the key space: an even split
  // would put everything in partition 0.
  Rng rng(8);
  StateCheckpoint c;
  for (int i = 0; i < 4000; ++i) {
    c.processing.Add(rng.Next() >> 7, "v");  // keys in [0, 2^57)
  }
  const auto ranges = BalancedSplitRanges(c, 4);
  ASSERT_EQ(ranges.size(), 4u);
  // Coverage invariants hold.
  EXPECT_EQ(ranges.front().lo, 0u);
  EXPECT_EQ(ranges.back().hi, UINT64_MAX);
  for (size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i - 1].hi + 1, ranges[i].lo);
  }
  // Each partition holds roughly a quarter of the entries.
  auto parts = PartitionCheckpointByRanges(c, ranges);
  ASSERT_TRUE(parts.ok());
  for (const auto& part : *parts) {
    EXPECT_NEAR(static_cast<double>(part.processing.size()), 1000, 10);
  }
  // The even split, by contrast, is pathological here.
  auto even = PartitionCheckpoint(c, 4);
  ASSERT_TRUE(even.ok());
  EXPECT_EQ((*even)[0].processing.size(), 4000u);
}

TEST(StateOpsTest, BalancedSplitFallsBackOnSparseState) {
  StateCheckpoint c;
  c.processing.Add(1, "only");
  const auto ranges = BalancedSplitRanges(c, 4);
  EXPECT_EQ(ranges, KeyRange::Full().SplitEven(4));
}

TEST(StateOpsTest, BalancedSplitRespectsSubrange) {
  Rng rng(9);
  StateCheckpoint c;
  c.key_range = {1000, 2000000};
  for (int i = 0; i < 1000; ++i) {
    c.processing.Add(1000 + rng.NextBounded(1999000), "v");
  }
  const auto ranges = BalancedSplitRanges(c, 2);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges.front().lo, c.key_range.lo);
  EXPECT_EQ(ranges.back().hi, c.key_range.hi);
}

TEST(StateOpsTest, MergeRejectsNonAdjacent) {
  StateCheckpoint a = MakeCheckpoint(6, 10);
  StateCheckpoint b = MakeCheckpoint(7, 10);
  a.key_range = {0, 10};
  b.key_range = {20, 30};
  EXPECT_FALSE(MergeCheckpoints({a, b}).ok());
  b.op = 99;
  b.key_range = {11, 30};
  EXPECT_FALSE(MergeCheckpoints({a, b}).ok());  // different operator
  EXPECT_FALSE(MergeCheckpoints({}).ok());
}

}  // namespace
}  // namespace seep::core
