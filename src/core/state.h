#ifndef SEEP_CORE_STATE_H_
#define SEEP_CORE_STATE_H_

#include <cstdint>
#include <map>
#include <string>
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
/// Entries are kept sorted by key hash. Operators may Add in any order; the
/// sort happens lazily on first read (one O(n log n) per capture instead of
/// per-operation bookkeeping), after which every range operation is a
/// binary-searched slice: FilterByRange is O(log n + output), MergeFrom and
/// delta application are linear merges, and quantile splits read positions
/// directly.
class ProcessingState {
 public:
  using Entry = std::pair<KeyHash, std::string>;

  ProcessingState() = default;

  void Add(KeyHash key, std::string value) {
    bytes_ += sizeof(KeyHash) + value.size();
    if (!entries_.empty() && key < entries_.back().first) sorted_ = false;
    entries_.emplace_back(key, std::move(value));
  }

  /// Entries sorted ascending by key (ties keep insertion order).
  const std::vector<Entry>& entries() const {
    EnsureSorted();
    return entries_;
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  void Reserve(size_t n) { entries_.reserve(n); }

  /// Approximate in-memory footprint; checkpoint CPU cost scales with this.
  size_t ByteSize() const { return bytes_; }

  /// Exact size of the Encode() output, without encoding: bytes_ already
  /// counts 8 bytes per key plus the value bytes, so only the varint lengths
  /// are summed — arithmetic only, no memory traffic.
  size_t EncodedSize() const;

  /// Returns the subset of entries whose key falls in `range` — the core of
  /// Algorithm 2 line 5: θi ← {(k,v) ∈ θ : ki ≤ k < ki+1}. Binary-searches
  /// the sorted entries, so the cost is O(log n) plus the copied slice.
  ProcessingState FilterByRange(const KeyRange& range) const;

  /// Merges all entries of `other` (used by scale-in merge; key sets must be
  /// disjoint, which holds for partitions of disjoint ranges). Adjacent
  /// ranges append in O(other); the general case is a linear merge.
  void MergeFrom(const ProcessingState& other);

  /// Incremental-checkpoint application: replaces/inserts `updated` entries
  /// by key and drops `deleted` keys, as a single two-pointer merge over the
  /// sorted base and delta — O(base + delta), no intermediate map, no full
  /// rebuild. A key in both `updated` and `deleted` is deleted.
  void ApplyDelta(const ProcessingState& updated,
                  const std::vector<KeyHash>& deleted);

  void Encode(serde::Encoder* enc) const;
  [[nodiscard]] static Result<ProcessingState> Decode(serde::Decoder* dec);

 private:
  void EnsureSorted() const;

  // Lazily sorted: Add only appends; readers sort once on demand.
  mutable std::vector<Entry> entries_;
  mutable bool sorted_ = true;
  size_t bytes_ = 0;
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

/// One downstream operator's replay buffer: tuples in append (= logical
/// timestamp) order, with an amortised-O(1) front trim. Trimming only
/// advances a front offset; the dead prefix is compacted away once it
/// outgrows the live region, so each tuple is moved O(1) times over its
/// lifetime instead of once per trim. Copying (checkpoint capture) copies
/// only the live region.
class TupleBuffer {
 public:
  using const_iterator = std::vector<Tuple>::const_iterator;

  TupleBuffer() = default;
  TupleBuffer(const TupleBuffer& other)
      : tuples_(other.begin(), other.end()), bytes_(other.bytes_) {}
  TupleBuffer& operator=(const TupleBuffer& other) {
    if (this != &other) {
      tuples_.assign(other.begin(), other.end());
      front_ = 0;
      bytes_ = other.bytes_;
    }
    return *this;
  }
  TupleBuffer(TupleBuffer&&) = default;
  TupleBuffer& operator=(TupleBuffer&&) = default;

  /// Appends a copy of `t`, constructed in place.
  void Append(const Tuple& t) {
    Admit(t);
    tuples_.push_back(t);
  }
  void Append(Tuple&& t) {
    Admit(t);
    tuples_.push_back(std::move(t));
  }

  void Reserve(size_t n) { tuples_.reserve(front_ + n); }

  size_t size() const { return tuples_.size() - front_; }
  bool empty() const { return front_ == tuples_.size(); }
  const Tuple& front() const { return tuples_[front_]; }
  const Tuple& back() const { return tuples_.back(); }
  const_iterator begin() const { return tuples_.begin() + front_; }
  const_iterator end() const { return tuples_.end(); }

  /// Wire size of the live tuples (maintained incrementally, O(1)).
  size_t ByteSize() const { return bytes_; }

  /// First tuple with timestamp > `timestamp`. Timestamps are assigned by
  /// the emitting instance's monotone logical clock, so the buffer is sorted
  /// by timestamp and this is a binary search.
  const_iterator UpperBound(int64_t timestamp) const;

  /// Drops all tuples with timestamp <= up_to; returns how many.
  /// O(log n) search + amortised-O(1) per dropped tuple.
  size_t TrimThroughTimestamp(int64_t up_to);

  /// Drops the longest prefix with event_time < cutoff; returns how many.
  /// Event times are only approximately append-ordered (window-close
  /// emissions interleave with per-tuple ones), so this walks the prefix —
  /// O(dropped), not O(n): it stops at the first survivor and never shifts
  /// the survivors.
  size_t TrimBeforeEventTime(SimTime cutoff);

 private:
  void Admit(const Tuple& t) {
    // UpperBound/Trim binary-search on timestamp order; an out-of-order
    // append would silently corrupt trims.
    SEEP_DCHECK(tuples_.empty() || tuples_.back().timestamp <= t.timestamp);
    bytes_ += t.SerializedSize();
  }
  void MaybeCompact();

  std::vector<Tuple> tuples_;
  size_t front_ = 0;   // index of the first live tuple
  size_t bytes_ = 0;   // wire size of the live region
};

/// Buffer state βo (paper §3.1): output tuples kept per downstream logical
/// operator until a downstream checkpoint covers them. Replayed after a
/// downstream restore; trimmed on checkpoint acknowledgements.
class BufferState {
 public:
  void Append(OperatorId downstream, const Tuple& t) {
    buffers_[downstream].Append(t);
  }
  void Append(OperatorId downstream, Tuple&& t) {
    buffers_[downstream].Append(std::move(t));
  }

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

  /// Exact size of the Encode() output, without encoding. Tuple byte sizes
  /// are maintained incrementally per buffer, so this is O(#buffers).
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
