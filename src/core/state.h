#ifndef SEEP_CORE_STATE_H_
#define SEEP_CORE_STATE_H_

#include <cstdint>
#include <map>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/macros.h"
#include "common/result.h"
#include "common/time.h"
#include "core/key_range.h"
#include "core/tuple.h"

namespace seep::core {

/// Processing state θo (paper §3.1): the operator's summary of past tuples,
/// externalised as key/value pairs so the SPS can checkpoint and partition it
/// without understanding operator internals. Operators keep efficient
/// internal structures and translate on demand (get-processing-state).
///
/// The values live back to back in one byte arena, each entry a (key,
/// offset, length) slot over it: an operator capture appends bytes and
/// allocates nothing per entry, a copy is two buffer copies, and dropping a
/// state (a holder replacing its stored checkpoint) frees two buffers.
///
/// Entries are kept sorted by key hash. Operators may Add in any order; the
/// sort happens lazily on first read and moves slots only (one O(n log n)
/// per capture instead of per-operation bookkeeping), after which every
/// range operation is a binary-searched slice: FilterByRange is O(log n +
/// output), MergeFrom and delta application are linear merges, and
/// quantile splits read positions directly.
class ProcessingState {
 public:
  /// One entry as entries() yields it: the key and a view of the value.
  using Entry = std::pair<KeyHash, std::string_view>;

  ProcessingState() = default;

  /// Appends a copy of `value`'s bytes to the arena.
  void Add(KeyHash key, std::string_view value) {
    if (!slots_.empty() && key < slots_.back().key) sorted_ = false;
    slots_.push_back(Slot{key, arena_.size(), value.size()});
    arena_.append(value);
  }

  /// Entries sorted ascending by key (ties keep insertion order), each an
  /// Entry whose value views the arena. The views die with the state's next
  /// mutation: an Add may move the arena.
  auto entries() const {
    EnsureSorted();
    return std::views::transform(
        std::span<const Slot>(slots_),
        [arena = arena_.data()](const Slot& s) {
          return Entry{s.key, std::string_view(arena + s.offset, s.length)};
        });
  }

  size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }

  /// Room for `entries` entries whose values total `value_bytes`.
  void Reserve(size_t entries, size_t value_bytes = 0) {
    slots_.reserve(entries);
    arena_.reserve(value_bytes);
  }

  /// Approximate in-memory footprint: 8 bytes per key plus the value bytes.
  /// Checkpoint CPU cost scales with this.
  size_t ByteSize() const {
    return sizeof(KeyHash) * slots_.size() + arena_.size();
  }

  /// Exact size of the Encode() output, without encoding: ByteSize() plus
  /// the varint lengths, arithmetic over the slots only.
  size_t EncodedSize() const;

  /// Returns the subset of entries whose key falls in `range` — the core of
  /// Algorithm 2 line 5: θi ← {(k,v) ∈ θ : ki ≤ k < ki+1}. Binary-searches
  /// the sorted entries, so the cost is O(log n) plus the copied slice,
  /// which fills a fresh arena sized for it.
  ProcessingState FilterByRange(const KeyRange& range) const;

  /// Merges all entries of `other` (used by scale-in merge; key sets must be
  /// disjoint, which holds for partitions of disjoint ranges): `other`'s
  /// arena is appended whole. Adjacent ranges append their slots in
  /// O(other); the general case is a linear merge of the slots.
  void MergeFrom(const ProcessingState& other);

  /// Incremental-checkpoint application: replaces/inserts `updated` entries
  /// by key and drops `deleted` keys, as a single two-pointer merge over the
  /// sorted base and delta into a fresh arena — O(base + delta), no
  /// intermediate map. A key in both `updated` and `deleted` is deleted.
  void ApplyDelta(const ProcessingState& updated,
                  const std::vector<KeyHash>& deleted);

  void Encode(serde::Encoder* enc) const;
  [[nodiscard]] static Result<ProcessingState> Decode(serde::Decoder* dec);

 private:
  struct Slot {
    KeyHash key = 0;
    size_t offset = 0;  // into arena_
    size_t length = 0;
  };

  std::string_view Value(const Slot& s) const {
    return std::string_view(arena_.data() + s.offset, s.length);
  }
  void EnsureSorted() const;

  // Lazily sorted: Add only appends; readers sort the slots once on demand.
  mutable std::vector<Slot> slots_;
  mutable bool sorted_ = true;
  // Every slot's value and nothing else, so ByteSize() reads its size.
  std::string arena_;
};

/// The τ vector (paper §2.2/§3.1): for each input stream origin, the most
/// recent timestamp reflected in the processing state. Doubles as the
/// duplicate-filtering watermark: a tuple from origin g with timestamp
/// <= positions[g] is already accounted for and must be discarded on replay.
class InputPositions {
 public:
  /// Returns true if the tuple advances the position (i.e. is fresh); false
  /// if it is a duplicate.
  bool Advance(OriginId origin, int64_t timestamp);

  /// Position for an origin, or -1 when never seen.
  int64_t Get(OriginId origin) const;

  void Set(OriginId origin, int64_t timestamp) {
    positions_[origin] = timestamp;
  }

  const std::map<OriginId, int64_t>& positions() const { return positions_; }

  /// Exact size of the Encode() output, without encoding.
  size_t EncodedSize() const;

  /// Element-wise minimum with `other`; used when merging states where the
  /// conservative (replay-more) direction is required.
  void LowerBoundWith(const InputPositions& other);

  /// Element-wise maximum with `other`; valid only for quiesced merges where
  /// both sides have seen all tuples up to their positions.
  void UpperBoundWith(const InputPositions& other);

  void Encode(serde::Encoder* enc) const;
  [[nodiscard]] static Result<InputPositions> Decode(serde::Decoder* dec);

 private:
  std::map<OriginId, int64_t> positions_;
};

/// One downstream operator's replay buffer: its tuples in append (=
/// logical timestamp) order, held as their Tuple::Write bytes back to back
/// with one (timestamp, event time, offset) slot per tuple. A tuple is
/// written once, when appended. Copies, delta suffixes and the encoder move
/// byte ranges; only a reader or a replay decodes a tuple.
///
/// Trimming only advances the front slot; the dead byte and slot prefixes
/// are compacted away together once they outgrow the live region, so each
/// tuple is moved O(1) times over its lifetime instead of once per trim.
/// Copying (checkpoint capture, restore) copies only the live region.
class TupleBuffer {
 public:
  /// Where a tuple's bytes start, with the two fields the trims search.
  struct Slot {
    int64_t timestamp = 0;
    SimTime event_time = 0;
    size_t offset = 0;  // into bytes_
  };

  TupleBuffer() = default;
  TupleBuffer(const TupleBuffer& other) { AppendFrom(other, 0); }
  TupleBuffer& operator=(const TupleBuffer& other) {
    if (this != &other) {
      bytes_.clear();
      slots_.clear();
      front_ = 0;
      AppendFrom(other, 0);
    }
    return *this;
  }
  TupleBuffer(TupleBuffer&&) = default;
  TupleBuffer& operator=(TupleBuffer&&) = default;

  /// Writes `t`'s wire bytes at the back.
  void Append(const Tuple& t);

  /// Appends `other`'s live tuples from index `first` on (0 is its front)
  /// as one byte range.
  void AppendFrom(const TupleBuffer& other, size_t first);

  size_t size() const { return slots_.size() - front_; }
  bool empty() const { return front_ == slots_.size(); }
  const Slot& front() const { return slots_[front_]; }
  const Slot& back() const { return slots_.back(); }

  /// Decodes the live tuple at index `i` (0 is the front).
  Tuple At(size_t i) const;

  /// Wire size of the live tuples, O(1).
  size_t ByteSize() const { return bytes_.size() - LiveOffset(); }

  /// Index of the first live tuple with timestamp > `timestamp`, size() if
  /// none. Timestamps are assigned by the emitting instance's monotone
  /// logical clock, so the buffer is sorted by timestamp and this is a
  /// binary search over the slots.
  size_t UpperBound(int64_t timestamp) const;

  /// Drops all tuples with timestamp <= up_to; returns how many.
  /// O(log n) search + amortised-O(1) per dropped tuple.
  size_t TrimThroughTimestamp(int64_t up_to);

  /// Drops the longest prefix with event_time < cutoff; returns how many.
  /// Event times are only approximately append-ordered (window-close
  /// emissions interleave with per-tuple ones), so this walks the prefix —
  /// O(dropped), not O(n): it stops at the first survivor and never shifts
  /// the survivors.
  size_t TrimBeforeEventTime(SimTime cutoff);

  /// The tuple count, then the live bytes in one copy.
  void Encode(serde::Encoder* enc) const;
  /// Reads what Encode wrote and appends it: every tuple is decoded once to
  /// check it and its timestamp order (equal timestamps are legal, as in
  /// Append), and the bytes are kept as they arrived.
  [[nodiscard]] Status DecodeAppend(serde::Decoder* dec);

 private:
  size_t LiveOffset() const {
    return empty() ? bytes_.size() : slots_[front_].offset;
  }
  void MaybeCompact();

  std::vector<uint8_t> bytes_;  // Tuple::Write bytes, live from LiveOffset()
  std::vector<Slot> slots_;
  size_t front_ = 0;  // index of the first live slot
};

/// Buffer state βo (paper §3.1): output tuples kept per downstream logical
/// operator until a downstream checkpoint covers them. Replayed after a
/// downstream restore; trimmed on checkpoint acknowledgements.
class BufferState {
 public:
  void Append(OperatorId downstream, const Tuple& t) {
    buffers_[downstream].Append(t);
  }

  /// Appends `from`'s live tuples from index `first` on to `downstream`'s
  /// buffer. The entry is created only when there is a tuple to append: an
  /// entry's existence is part of the encoding.
  void AppendFrom(OperatorId downstream, const TupleBuffer& from,
                  size_t first);

  /// Drops all tuples for `downstream` with timestamp <= up_to (the paper's
  /// trim(o, τ)). Returns the number of tuples dropped.
  size_t Trim(OperatorId downstream, int64_t up_to);

  /// Drops all tuples (any downstream) created before `cutoff`. Used by the
  /// upstream-backup and source-replay baselines, whose buffers cover a
  /// fixed window of history rather than the checkpoint horizon.
  size_t TrimByEventTime(SimTime cutoff);

  const TupleBuffer* Get(OperatorId downstream) const;
  std::map<OperatorId, TupleBuffer>& buffers() { return buffers_; }
  const std::map<OperatorId, TupleBuffer>& buffers() const {
    return buffers_;
  }

  size_t TotalTuples() const;
  size_t ByteSize() const;

  /// Exact size of the Encode() output, without encoding: O(#buffers).
  size_t EncodedSize() const;

  void Encode(serde::Encoder* enc) const;
  [[nodiscard]] static Result<BufferState> Decode(serde::Decoder* dec);

 private:
  std::map<OperatorId, TupleBuffer> buffers_;
};

/// Routing state ρo (paper §3.1): for each downstream logical operator, the
/// key-interval → partitioned-instance mapping. Changes only on scale out,
/// scale in, or recovery, and is therefore owned by the query manager and
/// pushed to upstream instances (paper §3.2: "routing state is maintained by
/// the query manager").
class RoutingState {
 public:
  struct Route {
    KeyRange range;
    InstanceId instance;
  };

  /// Replaces the routes for one downstream logical operator. Routes must
  /// cover disjoint ranges (checked in debug builds at lookup time).
  void SetRoutes(OperatorId downstream, std::vector<Route> routes);

  /// Routes a key: the instance whose range contains `key`. Returns
  /// kInvalidInstance if `downstream` has no routes (not deployed).
  InstanceId RouteKey(OperatorId downstream, KeyHash key) const;

  const std::map<OperatorId, std::vector<Route>>& all() const {
    return table_;
  }

  bool empty() const { return table_.empty(); }

 private:
  std::map<OperatorId, std::vector<Route>> table_;
};

/// Changed portion of a processing state since the previous checkpoint:
/// updated/inserted entries plus keys removed entirely (e.g. expired
/// windows). Keys are treated as entry identities.
struct StateDelta {
  ProcessingState updated;
  std::vector<KeyHash> deleted;
};

/// A checkpoint of one operator instance: everything needed to restore or
/// partition it (paper §3.2 checkpoint-state → (θo, τo, βo), plus the output
/// clock that restore resets so downstream can discard duplicates).
///
/// A checkpoint is either *full* or a *delta* (incremental checkpointing,
/// §3.2): a delta carries only the processing-state entries changed since
/// the base checkpoint `base_seq`, the keys deleted since then, the new
/// buffer tuples, and per-downstream trim positions for the buffer the
/// holder mirrors. The holder applies deltas onto its stored full copy
/// (ApplyDelta in state_ops.h), so retrieval always yields a full state.
struct StateCheckpoint {
  OperatorId op = 0;
  InstanceId instance = kInvalidInstance;
  OriginId origin = kInvalidOrigin;
  KeyRange key_range = KeyRange::Full();
  int64_t out_clock = 0;
  uint64_t seq = 0;        // checkpoint sequence number, monotone per instance
  SimTime taken_at = 0;
  InputPositions positions;
  ProcessingState processing;
  BufferState buffer;

  // Incremental-checkpoint fields (meaningful when is_delta).
  bool is_delta = false;
  uint64_t base_seq = 0;
  std::vector<KeyHash> deleted_keys;
  /// For each downstream op: the owner's current oldest buffered timestamp;
  /// the holder drops mirrored tuples below it (trim replication).
  std::map<OperatorId, int64_t> buffer_front;

  size_t ByteSize() const;

  /// Exact size of the Encode() output, without encoding — what Encode
  /// reserves, and what the checkpoint pipeline's serialization stage uses
  /// to size the frame in one allocation (no realloc churn on multi-MB
  /// snapshots).
  size_t EncodedSize() const;

  void Encode(serde::Encoder* enc) const;
  [[nodiscard]] static Result<StateCheckpoint> Decode(serde::Decoder* dec);
};

}  // namespace seep::core

#endif  // SEEP_CORE_STATE_H_
