// Randomized equivalence tests for the state-management hot paths: the
// sorted, arena-backed ProcessingState, the merge-based ApplyDelta and the
// byte-held TupleBuffer with its amortized trim must produce byte-identical
// Encode() output to a naive reference implementation (std::map state,
// vector-erase buffer of Tuples) across random operation sequences,
// including delta chains with deletions, out-of-order base_seq rejection,
// full copies, suffix appends, decoding and replay.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/state.h"
#include "core/state_ops.h"
#include "serde/decoder.h"
#include "serde/encoder.h"

namespace seep::core {
namespace {

// ------------------------------------------------------ naive reference model

// The pre-rework semantics, kept deliberately simple: processing state is a
// std::map (canonically sorted, last write wins, erase deletes), buffers are
// plain vectors trimmed with find_if + erase.
struct ReferenceModel {
  std::map<KeyHash, std::string> processing;
  std::map<OperatorId, std::vector<Tuple>> buffers;

  void ApplyDelta(const std::map<KeyHash, std::string>& updated,
                  const std::vector<KeyHash>& deleted,
                  const std::map<OperatorId, int64_t>& buffer_front,
                  const std::map<OperatorId, std::vector<Tuple>>& fresh) {
    for (const auto& [key, value] : updated) processing[key] = value;
    for (KeyHash key : deleted) processing.erase(key);
    for (const auto& [op, front] : buffer_front) Trim(op, front - 1);
    for (const auto& [op, tuples] : fresh) {
      auto& vec = buffers[op];
      vec.insert(vec.end(), tuples.begin(), tuples.end());
    }
  }

  void Trim(OperatorId op, int64_t up_to) {
    auto it = buffers.find(op);
    if (it == buffers.end()) return;
    auto& vec = it->second;
    auto keep_from = std::find_if(vec.begin(), vec.end(), [&](const Tuple& t) {
      return t.timestamp > up_to;
    });
    vec.erase(vec.begin(), keep_from);
  }

  void TrimByEventTime(SimTime cutoff) {
    for (auto& [op, vec] : buffers) {
      auto keep_from =
          std::find_if(vec.begin(), vec.end(),
                       [&](const Tuple& t) { return t.event_time >= cutoff; });
      vec.erase(vec.begin(), keep_from);
    }
  }

  /// Rebuilds a StateCheckpoint with identical metadata to `like` but with
  /// processing/buffer contents from this model, using only Add/Append.
  StateCheckpoint ToCheckpoint(const StateCheckpoint& like) const {
    StateCheckpoint c;
    c.op = like.op;
    c.instance = like.instance;
    c.origin = like.origin;
    c.key_range = like.key_range;
    c.out_clock = like.out_clock;
    c.seq = like.seq;
    c.taken_at = like.taken_at;
    c.positions = like.positions;
    c.is_delta = like.is_delta;
    c.base_seq = like.base_seq;
    c.deleted_keys = like.deleted_keys;
    c.buffer_front = like.buffer_front;
    for (const auto& [key, value] : processing) c.processing.Add(key, value);
    for (const auto& [op, vec] : buffers) {
      // Fully-trimmed buffers stay in the map as empty entries (and get
      // encoded); mirror that rather than dropping them.
      c.buffer.buffers()[op];
      for (const Tuple& t : vec) c.buffer.Append(op, t);
    }
    return c;
  }
};

std::vector<uint8_t> Encoded(const StateCheckpoint& c) {
  serde::Encoder enc;
  c.Encode(&enc);
  return std::move(enc).TakeBuffer();
}

Tuple MakeTuple(int64_t ts, KeyHash key, SimTime event_time = 0) {
  Tuple t;
  t.timestamp = ts;
  t.key = key;
  t.event_time = event_time;
  t.text = "t" + std::to_string(ts);
  return t;
}

// Values from empty to 40 bytes, past the 15-byte short-string buffer.
std::string RandomValue(Rng& rng) {
  const size_t len = rng.NextBounded(8) == 0 ? 0 : 1 + rng.NextBounded(40);
  return std::string(len, static_cast<char>('a' + rng.NextBounded(26)));
}

// A small key universe so delta updates/deletes collide with base keys often.
KeyHash RandomKey(Rng& rng) { return 1 + rng.NextBounded(200); }

// ----------------------------------------------------------- delta chains

TEST(StateHotPathsTest, RandomDeltaChainsMatchNaiveReference) {
  Rng rng(20260806);
  for (int round = 0; round < 1000; ++round) {
    // Random full base checkpoint.
    StateCheckpoint base;
    base.op = 7;
    base.instance = 3;
    base.origin = 11;
    base.seq = 1 + rng.NextBounded(5);
    base.out_clock = 100;
    base.positions.Set(1, 50);
    ReferenceModel ref;
    const size_t n_base = rng.NextBounded(48);
    for (size_t i = 0; i < n_base; ++i) {
      const KeyHash key = RandomKey(rng);
      if (ref.processing.contains(key)) continue;  // keys are identities
      const std::string value = RandomValue(rng);
      ref.processing[key] = value;
      base.processing.Add(key, value);
    }
    int64_t next_ts = 1;
    const size_t n_buf = rng.NextBounded(32);
    for (size_t i = 0; i < n_buf; ++i) {
      const OperatorId down = 20 + rng.NextBounded(2);
      const Tuple t = MakeTuple(next_ts++, rng.Next());
      ref.buffers[down].push_back(t);
      base.buffer.Append(down, t);
    }

    // Random chain of deltas applied onto the stored base.
    const int chain = 1 + rng.NextBounded(4);
    for (int d = 0; d < chain; ++d) {
      StateCheckpoint delta;
      delta.op = base.op;
      delta.instance = base.instance;
      delta.origin = base.origin;
      delta.is_delta = true;
      delta.base_seq = base.seq;
      delta.seq = base.seq + 1;
      delta.out_clock = base.out_clock + 10;
      delta.taken_at = base.taken_at + 5;
      delta.positions = base.positions;
      delta.positions.Set(1, 50 + d);

      std::map<KeyHash, std::string> updated;
      const size_t n_upd = rng.NextBounded(16);
      for (size_t i = 0; i < n_upd; ++i) {
        updated[RandomKey(rng)] = RandomValue(rng);
      }
      for (const auto& [key, value] : updated) {
        delta.processing.Add(key, value);
      }
      // Deletions: a mix of present and absent keys, sometimes overlapping
      // the same delta's updates (deletion must win).
      const size_t n_del = rng.NextBounded(6);
      for (size_t i = 0; i < n_del; ++i) {
        delta.deleted_keys.push_back(RandomKey(rng));
      }
      // Buffer mirror: advance fronts and append fresh tuples.
      std::map<OperatorId, std::vector<Tuple>> fresh;
      for (const auto& [op, vec] : ref.buffers) {
        if (!vec.empty() && rng.NextBounded(2) == 0) {
          const size_t keep = rng.NextBounded(vec.size() + 1);
          delta.buffer_front[op] =
              keep == 0 ? next_ts : vec[vec.size() - keep].timestamp;
        }
      }
      const size_t n_fresh = rng.NextBounded(8);
      for (size_t i = 0; i < n_fresh; ++i) {
        const OperatorId down = 20 + rng.NextBounded(2);
        const Tuple t = MakeTuple(next_ts++, rng.Next());
        fresh[down].push_back(t);
        delta.buffer.Append(down, t);
      }

      // Occasionally: an out-of-order delta must be rejected without
      // mutating the base at all.
      if (rng.NextBounded(8) == 0) {
        StateCheckpoint stale = delta;
        stale.base_seq = base.seq + 17;
        const auto before = Encoded(base);
        EXPECT_FALSE(ApplyDelta(&base, stale).ok());
        EXPECT_EQ(before, Encoded(base)) << "rejected delta mutated base";
      }

      ASSERT_TRUE(ApplyDelta(&base, delta).ok());
      ref.ApplyDelta(updated, delta.deleted_keys, delta.buffer_front, fresh);

      EXPECT_EQ(Encoded(base), Encoded(ref.ToCheckpoint(base)))
          << "divergence in round " << round << " after delta " << d;
    }
  }
}

// ------------------------------------------------------- processing state

TEST(StateHotPathsTest, UnsortedAddsSerializeCanonically) {
  Rng rng(99);
  for (int round = 0; round < 200; ++round) {
    ProcessingState state;
    std::map<KeyHash, std::string> ref;
    for (int i = 0; i < 64; ++i) {
      const KeyHash key = rng.Next();  // arbitrary order
      if (ref.contains(key)) continue;
      const std::string value = RandomValue(rng);
      ref[key] = value;
      state.Add(key, value);
    }
    ProcessingState canonical;
    for (const auto& [key, value] : ref) canonical.Add(key, value);
    serde::Encoder a, b;
    state.Encode(&a);
    canonical.Encode(&b);
    EXPECT_EQ(a.buffer(), b.buffer());
  }
}

TEST(StateHotPathsTest, FilterByRangeMatchesLinearScan) {
  Rng rng(7);
  ProcessingState state;
  std::vector<std::pair<KeyHash, std::string>> raw;
  for (int i = 0; i < 2000; ++i) {
    const KeyHash key = rng.Next();
    const std::string value = RandomValue(rng);
    raw.emplace_back(key, value);
    state.Add(key, value);
  }
  for (int round = 0; round < 100; ++round) {
    KeyHash lo = rng.Next(), hi = rng.Next();
    if (lo > hi) std::swap(lo, hi);
    const KeyRange range{lo, hi};
    const ProcessingState fast = state.FilterByRange(range);
    std::map<KeyHash, std::string> slow;
    for (const auto& [key, value] : raw) {
      if (range.Contains(key)) slow[key] = value;
    }
    ASSERT_EQ(fast.size(), slow.size());
    for (const auto& [key, value] : fast.entries()) {
      EXPECT_TRUE(range.Contains(key));
      EXPECT_EQ(slow.at(key), value);
    }
  }
}

TEST(StateHotPathsTest, MergeFromMatchesMapUnion) {
  Rng rng(13);
  for (int round = 0; round < 200; ++round) {
    ProcessingState a, b;
    std::map<KeyHash, std::string> ref;
    // Odd rounds split the key space in two halves, as scale-in merges
    // adjacent ranges (b's slots append after a's); even rounds interleave.
    const bool adjacent = round % 2 == 1;
    for (int i = 0; i < 40; ++i) {
      const KeyHash key = rng.Next();
      const std::string value = RandomValue(rng);
      if (ref.contains(key)) continue;
      ref[key] = value;
      const bool to_a =
          adjacent ? key < (KeyHash{1} << 63) : rng.NextBounded(2) == 0;
      (to_a ? a : b).Add(key, value);
    }
    a.MergeFrom(b);
    // The views read the merged arena: each value as the model holds it.
    ASSERT_EQ(a.size(), ref.size());
    for (const auto& [key, value] : a.entries()) EXPECT_EQ(ref.at(key), value);
    ProcessingState canonical;
    size_t bytes = 0;
    for (const auto& [key, value] : ref) {
      canonical.Add(key, value);
      bytes += sizeof(KeyHash) + value.size();
    }
    EXPECT_EQ(a.ByteSize(), bytes);
    serde::Encoder enc_a, enc_b;
    a.Encode(&enc_a);
    canonical.Encode(&enc_b);
    EXPECT_EQ(enc_a.buffer(), enc_b.buffer());
    EXPECT_EQ(enc_a.size(), a.EncodedSize());
    // Decoded into a fresh arena, the state encodes the same bytes.
    serde::Decoder dec(enc_a.buffer());
    auto back = ProcessingState::Decode(&dec);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(dec.AtEnd());
    serde::Encoder again;
    back.value().Encode(&again);
    EXPECT_EQ(again.buffer(), enc_a.buffer());
  }
}

// ----------------------------------------------------------------- buffers

// Texts of 0, 15 and 16 bytes (either side of the short-string buffer) and
// of 200 bytes (a two-byte length varint).
std::string RandomText(Rng& rng) {
  static constexpr size_t kLengths[] = {0, 15, 16, 200};
  return std::string(kLengths[rng.NextBounded(4)],
                     static_cast<char>('a' + rng.NextBounded(26)));
}

std::vector<uint8_t> EncodedTuple(const Tuple& t) {
  serde::Encoder enc;
  t.Encode(&enc);
  return std::move(enc).TakeBuffer();
}

std::vector<uint8_t> EncodedBuffer(const BufferState& buffer) {
  serde::Encoder enc;
  buffer.Encode(&enc);
  return std::move(enc).TakeBuffer();
}

// β as the model's tuples encode, appended one by one.
std::vector<uint8_t> EncodedBuffer(const ReferenceModel& ref) {
  return EncodedBuffer(ref.ToCheckpoint(StateCheckpoint()).buffer);
}

// Every tuple of `buffer` from index `from` on decodes to the model's
// tuples past `shipped`, as a replay from UpperBound decodes them.
void ExpectSuffixDecodesLikeModel(const TupleBuffer& buffer, size_t from,
                                  const std::vector<Tuple>& model,
                                  int64_t shipped) {
  std::vector<Tuple> suffix;
  for (const Tuple& t : model) {
    if (t.timestamp > shipped) suffix.push_back(t);
  }
  ASSERT_EQ(buffer.size() - from, suffix.size());
  for (size_t k = 0; k < suffix.size(); ++k) {
    EXPECT_EQ(EncodedTuple(buffer.At(from + k)), EncodedTuple(suffix[k]));
  }
}

TEST(StateHotPathsTest, RandomTrimSequencesMatchVectorErase) {
  Rng rng(31);
  for (int round = 0; round < 1000; ++round) {
    BufferState fast;
    ReferenceModel ref;
    // Full copies taken along the way, each beside the model as it stood
    // then: the original's later appends, trims and compactions must not
    // reach them.
    std::vector<std::pair<BufferState, ReferenceModel>> copies;
    int64_t next_ts = 1;
    // Every fourth round runs long enough for trims to compact the dead
    // prefix away under live tuples.
    const int ops = 1 + rng.NextBounded(round % 4 == 0 ? 400 : 60);
    for (int i = 0; i < ops; ++i) {
      const OperatorId down = 40 + rng.NextBounded(3);
      switch (rng.NextBounded(8)) {
        case 0:
        case 1:
        case 2:
        case 3: {  // append (twice as likely as trim)
          Tuple t =
              MakeTuple(next_ts, rng.Next(), next_ts * kMicrosPerSecond);
          t.text = RandomText(rng);
          ++next_ts;
          fast.Append(down, t);
          ref.buffers[down].push_back(t);
          break;
        }
        case 4:
        case 5: {
          if (rng.NextBounded(2) == 0) {
            const int64_t up_to = rng.NextBounded(next_ts + 4);
            size_t ref_dropped = 0;
            if (auto it = ref.buffers.find(down); it != ref.buffers.end()) {
              const size_t before = it->second.size();
              ref.Trim(down, up_to);
              ref_dropped = before - it->second.size();
            }
            EXPECT_EQ(fast.Trim(down, up_to), ref_dropped);
          } else {
            const SimTime cutoff =
                static_cast<SimTime>(rng.NextBounded(next_ts + 4)) *
                kMicrosPerSecond;
            ref.TrimByEventTime(cutoff);
            fast.TrimByEventTime(cutoff);
          }
          break;
        }
        case 6: {  // a full copy, sometimes assigned over an older one
          if (!copies.empty() && rng.NextBounded(2) == 0) {
            copies.back().first = fast;
            copies.back().second = ref;
          } else {
            copies.emplace_back(fast, ref);
          }
          break;
        }
        case 7: {  // a delta's suffix and a replay, both from UpperBound
          const TupleBuffer* live = fast.Get(down);
          const auto model = ref.buffers.find(down);
          ASSERT_EQ(live == nullptr, model == ref.buffers.end());
          if (live == nullptr) break;
          const int64_t shipped = rng.NextBounded(next_ts + 1);
          const size_t from = live->UpperBound(shipped);
          ExpectSuffixDecodesLikeModel(*live, from, model->second, shipped);
          BufferState delta;
          delta.AppendFrom(down, *live, from);
          ReferenceModel delta_ref;
          for (const Tuple& t : model->second) {
            if (t.timestamp > shipped) delta_ref.buffers[down].push_back(t);
          }
          EXPECT_EQ(EncodedBuffer(delta), EncodedBuffer(delta_ref));
          break;
        }
      }
    }
    // Contents, sizes and serialized bytes all match the erase-based model.
    const std::vector<uint8_t> bytes = EncodedBuffer(fast);
    EXPECT_EQ(bytes, EncodedBuffer(ref));
    const BufferState ref_buffer = ref.ToCheckpoint(StateCheckpoint()).buffer;
    EXPECT_EQ(fast.ByteSize(), ref_buffer.ByteSize());
    EXPECT_EQ(fast.TotalTuples(), ref_buffer.TotalTuples());
    for (const auto& [copy, copy_ref] : copies) {
      EXPECT_EQ(EncodedBuffer(copy), EncodedBuffer(copy_ref))
          << "a copy changed with its original in round " << round;
    }
    // Decoded, β encodes the same bytes and replays the model's tuples.
    serde::Decoder dec(bytes);
    auto back = BufferState::Decode(&dec);
    ASSERT_TRUE(back.ok()) << back.status().message();
    EXPECT_TRUE(dec.AtEnd());
    EXPECT_EQ(EncodedBuffer(back.value()), bytes);
    for (const auto& [op, tuples] : ref.buffers) {
      const int64_t shipped = rng.NextBounded(next_ts + 1);
      for (const BufferState* b : {&fast, &back.value()}) {
        const TupleBuffer* buf = b->Get(op);
        ASSERT_NE(buf, nullptr);
        ExpectSuffixDecodesLikeModel(*buf, buf->UpperBound(shipped), tuples,
                                     shipped);
      }
    }
  }
}

TEST(StateHotPathsTest, TrimByEventTimeHandlesNonMonotonePrefix) {
  // Window-close emissions can carry an event time ahead of a later tuple's
  // source time; the trim must still only drop the maximal qualifying
  // prefix, exactly like the old find_if scan.
  BufferState buffer;
  buffer.Append(1, MakeTuple(1, 0, 5 * kMicrosPerSecond));
  buffer.Append(1, MakeTuple(2, 0, 30 * kMicrosPerSecond));  // window close
  buffer.Append(1, MakeTuple(3, 0, 6 * kMicrosPerSecond));   // older source ts
  buffer.Append(1, MakeTuple(4, 0, 31 * kMicrosPerSecond));
  EXPECT_EQ(buffer.TrimByEventTime(10 * kMicrosPerSecond), 1u);
  ASSERT_NE(buffer.Get(1), nullptr);
  EXPECT_EQ(buffer.Get(1)->size(), 3u);
  EXPECT_EQ(buffer.Get(1)->front().timestamp, 2);
}

TEST(StateHotPathsTest, AmortizedTrimCompactsDeadPrefix) {
  // Many tiny trims over a long-lived buffer: every query still sees exactly
  // the live suffix, and ByteSize tracks it.
  BufferState buffer;
  for (int64_t ts = 1; ts <= 4096; ++ts) buffer.Append(9, MakeTuple(ts, 0));
  size_t live = 4096;
  for (int64_t ts = 1; ts <= 4000; ts += 7) {
    buffer.Trim(9, ts);
    live = 4096 - static_cast<size_t>(ts);
    ASSERT_EQ(buffer.Get(9)->size(), live);
    ASSERT_EQ(buffer.Get(9)->front().timestamp, ts + 1);
  }
  size_t bytes = 0;
  const TupleBuffer& tuples = *buffer.Get(9);
  for (size_t i = 0; i < tuples.size(); ++i) {
    bytes += tuples.At(i).SerializedSize();
  }
  EXPECT_EQ(buffer.ByteSize(), bytes);
}

// ----------------------------------------------------- partition round trip

TEST(StateHotPathsTest, PartitionedSlicesSerializeLikeNaiveFilter) {
  Rng rng(55);
  StateCheckpoint c;
  std::map<KeyHash, std::string> ref;
  for (int i = 0; i < 3000; ++i) {
    const KeyHash key = rng.Next();
    const std::string value = RandomValue(rng);
    if (ref.contains(key)) continue;
    ref[key] = value;
    c.processing.Add(key, value);
  }
  auto parts = PartitionCheckpoint(c, 8);
  ASSERT_TRUE(parts.ok());
  size_t total = 0;
  for (const StateCheckpoint& part : *parts) {
    total += part.processing.size();
    ProcessingState naive;
    for (const auto& [key, value] : ref) {
      if (part.key_range.Contains(key)) naive.Add(key, value);
    }
    serde::Encoder a, b;
    part.processing.Encode(&a);
    naive.Encode(&b);
    EXPECT_EQ(a.buffer(), b.buffer());
  }
  EXPECT_EQ(total, ref.size());
}

}  // namespace
}  // namespace seep::core
