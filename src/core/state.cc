#include "core/state.h"

#include <algorithm>
#include <cstring>


namespace seep::core {

// ---------------------------------------------------------------- Processing

void ProcessingState::EnsureSorted() const {
  if (sorted_) return;
  // Stable so entries with colliding key hashes keep a deterministic
  // (insertion) order — Encode output must be canonical.
  std::stable_sort(
      entries_.begin(), entries_.end(),
      [](const Entry& a, const Entry& b) { return a.first < b.first; });
  sorted_ = true;
}

namespace {

// Binary-search helpers over the sorted entry vector.
std::vector<ProcessingState::Entry>::const_iterator LowerBoundKey(
    const std::vector<ProcessingState::Entry>& entries, KeyHash key) {
  return std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const ProcessingState::Entry& e, KeyHash k) { return e.first < k; });
}

std::vector<ProcessingState::Entry>::const_iterator UpperBoundKey(
    const std::vector<ProcessingState::Entry>& entries, KeyHash key) {
  return std::upper_bound(
      entries.begin(), entries.end(), key,
      [](KeyHash k, const ProcessingState::Entry& e) { return k < e.first; });
}

}  // namespace

ProcessingState ProcessingState::FilterByRange(const KeyRange& range) const {
  SEEP_DCHECK_LE(range.lo, range.hi);
  EnsureSorted();
  const auto first = LowerBoundKey(entries_, range.lo);
  const auto last = UpperBoundKey(entries_, range.hi);
  ProcessingState out;
  out.Reserve(static_cast<size_t>(last - first));
  for (auto it = first; it != last; ++it) out.Add(it->first, it->second);
  return out;
}

void ProcessingState::MergeFrom(const ProcessingState& other) {
  if (other.entries_.empty()) return;
  EnsureSorted();
  other.EnsureSorted();
  // Scale-in merges adjacent key ranges, so one side usually follows the
  // other entirely: a straight append keeps the result sorted.
  if (entries_.empty() ||
      entries_.back().first <= other.entries_.front().first) {
    entries_.insert(entries_.end(), other.entries_.begin(),
                    other.entries_.end());
    bytes_ += other.bytes_;
    return;
  }
  std::vector<Entry> merged;
  merged.reserve(entries_.size() + other.entries_.size());
  std::merge(std::make_move_iterator(entries_.begin()),
             std::make_move_iterator(entries_.end()), other.entries_.begin(),
             other.entries_.end(), std::back_inserter(merged),
             [](const Entry& a, const Entry& b) { return a.first < b.first; });
  entries_ = std::move(merged);
  bytes_ += other.bytes_;
}

void ProcessingState::ApplyDelta(const ProcessingState& updated,
                                 const std::vector<KeyHash>& deleted) {
  EnsureSorted();
  updated.EnsureSorted();
  std::vector<KeyHash> dead(deleted);
  std::sort(dead.begin(), dead.end());
  const auto is_dead = [&dead](KeyHash key) {
    return std::binary_search(dead.begin(), dead.end(), key);
  };

  std::vector<Entry> merged;
  merged.reserve(entries_.size() + updated.entries_.size());
  size_t bytes = 0;
  const auto push = [&](Entry e) {
    bytes += sizeof(KeyHash) + e.second.size();
    merged.push_back(std::move(e));
  };

  size_t i = 0, j = 0;
  const auto& upd = updated.entries_;
  while (i < entries_.size() || j < upd.size()) {
    // For one key, the delta's (last) entry supersedes the base's; a
    // deletion supersedes both.
    if (j == upd.size() ||
        (i < entries_.size() && entries_[i].first < upd[j].first)) {
      if (!is_dead(entries_[i].first)) push(std::move(entries_[i]));
      ++i;
      continue;
    }
    const KeyHash key = upd[j].first;
    while (j + 1 < upd.size() && upd[j + 1].first == key) ++j;  // last wins
    if (!is_dead(key)) push(upd[j]);
    ++j;
    while (i < entries_.size() && entries_[i].first == key) ++i;  // replaced
  }

  entries_ = std::move(merged);
  bytes_ = bytes;
  sorted_ = true;
}

size_t ProcessingState::EncodedSize() const {
  size_t total = serde::Encoder::VarintSize(entries_.size()) + bytes_;
  for (const Entry& e : entries_) {
    total += serde::Encoder::VarintSize(e.second.size());
  }
  return total;
}

void ProcessingState::Encode(serde::Encoder* enc) const {
  EnsureSorted();
  enc->AppendVarint64(entries_.size());
  // The payload size is knowable exactly (bytes_ already counts 8 bytes per
  // key plus the value bytes; only the length varints are extra), so the
  // whole state is emitted into one Extend() region with raw pointer
  // writes — no per-append bounds checks on the serialisation hot path.
  size_t total = bytes_;
  for (const Entry& e : entries_) {
    total += serde::Encoder::VarintSize(e.second.size());
  }
  uint8_t* p = enc->Extend(total);
  for (const Entry& e : entries_) {
    p = serde::Encoder::WriteFixed64(p, e.first);
    p = serde::Encoder::WriteVarint64(p, e.second.size());
    std::memcpy(p, e.second.data(), e.second.size());
    p += e.second.size();
  }
}

[[nodiscard]]
Result<ProcessingState> ProcessingState::Decode(serde::Decoder* dec) {
  ProcessingState out;
  uint64_t n;
  SEEP_ASSIGN_OR_RETURN(n, dec->ReadVarint64());
  if (n <= dec->remaining()) out.Reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    KeyHash k = 0;
    std::string v;
    if (!dec->GetFixed64(&k) || !dec->GetString(&v)) {
      return Status::Corruption("truncated or corrupt state entry");
    }
    out.Add(k, std::move(v));
  }
  return out;
}

// ------------------------------------------------------------------ Positions

bool InputPositions::Advance(OriginId origin, int64_t timestamp) {
  auto [it, inserted] = positions_.try_emplace(origin, timestamp);
  if (inserted) return true;
  if (timestamp <= it->second) return false;
  it->second = timestamp;
  return true;
}

int64_t InputPositions::Get(OriginId origin) const {
  auto it = positions_.find(origin);
  return it == positions_.end() ? -1 : it->second;
}

void InputPositions::LowerBoundWith(const InputPositions& other) {
  for (const auto& [origin, ts] : other.positions_) {
    auto [it, inserted] = positions_.try_emplace(origin, ts);
    if (!inserted) it->second = std::min(it->second, ts);
  }
}

void InputPositions::UpperBoundWith(const InputPositions& other) {
  for (const auto& [origin, ts] : other.positions_) {
    auto [it, inserted] = positions_.try_emplace(origin, ts);
    if (!inserted) it->second = std::max(it->second, ts);
  }
}

size_t InputPositions::EncodedSize() const {
  size_t total = serde::Encoder::VarintSize(positions_.size());
  for (const auto& [origin, ts] : positions_) {
    total += 8 + serde::Encoder::SignedVarintSize(ts);
  }
  return total;
}

void InputPositions::Encode(serde::Encoder* enc) const {
  enc->AppendVarint64(positions_.size());
  for (const auto& [origin, ts] : positions_) {
    enc->AppendFixed64(origin);
    enc->AppendVarintSigned64(ts);
  }
}

[[nodiscard]]
Result<InputPositions> InputPositions::Decode(serde::Decoder* dec) {
  InputPositions out;
  uint64_t n;
  SEEP_ASSIGN_OR_RETURN(n, dec->ReadVarint64());
  for (uint64_t i = 0; i < n; ++i) {
    OriginId origin;
    SEEP_ASSIGN_OR_RETURN(origin, dec->ReadFixed64());
    int64_t ts;
    SEEP_ASSIGN_OR_RETURN(ts, dec->ReadVarintSigned64());
    out.positions_[origin] = ts;
  }
  return out;
}

// --------------------------------------------------------------- TupleBuffer

TupleBuffer::const_iterator TupleBuffer::UpperBound(int64_t timestamp) const {
  return std::partition_point(begin(), end(), [timestamp](const Tuple& t) {
    return t.timestamp <= timestamp;
  });
}

size_t TupleBuffer::TrimThroughTimestamp(int64_t up_to) {
  // Appends come from a monotone logical clock, so the buffer is sorted by
  // timestamp and the trim point is a binary search.
  const auto keep_from = UpperBound(up_to);
  const size_t dropped = static_cast<size_t>(keep_from - begin());
  for (auto it = begin(); it != keep_from; ++it) {
    bytes_ -= it->SerializedSize();
  }
  front_ += dropped;
  MaybeCompact();
  return dropped;
}

size_t TupleBuffer::TrimBeforeEventTime(SimTime cutoff) {
  // Event times are not strictly append-ordered (window-close emissions
  // carry the close time, which can precede a later tuple's source time), so
  // a binary search would be unsound; walk the dropped prefix instead.
  size_t dropped = 0;
  while (front_ != tuples_.size() && tuples_[front_].event_time < cutoff) {
    bytes_ -= tuples_[front_].SerializedSize();
    ++front_;
    ++dropped;
  }
  MaybeCompact();
  return dropped;
}

void TupleBuffer::MaybeCompact() {
  // Reclaim the dead prefix once it dominates the live region: each tuple is
  // then moved at most O(1) amortised times over its lifetime.
  if (front_ >= 32 && front_ * 2 >= tuples_.size()) {
    tuples_.erase(tuples_.begin(),
                  tuples_.begin() + static_cast<ptrdiff_t>(front_));
    front_ = 0;
  }
}

// -------------------------------------------------------------------- Buffer

size_t BufferState::Trim(OperatorId downstream, int64_t up_to) {
  auto it = buffers_.find(downstream);
  if (it == buffers_.end()) return 0;
  return it->second.TrimThroughTimestamp(up_to);
}

size_t BufferState::TrimByEventTime(SimTime cutoff) {
  size_t dropped = 0;
  for (auto& [op, buf] : buffers_) dropped += buf.TrimBeforeEventTime(cutoff);
  return dropped;
}

const TupleBuffer* BufferState::Get(OperatorId downstream) const {
  auto it = buffers_.find(downstream);
  return it == buffers_.end() ? nullptr : &it->second;
}

size_t BufferState::TotalTuples() const {
  size_t n = 0;
  for (const auto& [op, buf] : buffers_) n += buf.size();
  return n;
}

size_t BufferState::ByteSize() const {
  size_t n = 0;
  for (const auto& [op, buf] : buffers_) n += buf.ByteSize();
  return n;
}

size_t BufferState::EncodedSize() const {
  size_t total = serde::Encoder::VarintSize(buffers_.size());
  for (const auto& [op, buf] : buffers_) {
    total += 4 + serde::Encoder::VarintSize(buf.size()) + buf.ByteSize();
  }
  return total;
}

void BufferState::Encode(serde::Encoder* enc) const {
  enc->Reserve(EncodedSize());
  enc->AppendVarint64(buffers_.size());
  for (const auto& [op, buf] : buffers_) {
    enc->AppendFixed32(op);
    enc->AppendVarint64(buf.size());
    // ByteSize() is the exact encoded size of the live tuples (kept by
    // Append and the trims), so each buffer is one region and one cursor.
    uint8_t* p = enc->Extend(buf.ByteSize());
    uint8_t* const end = p + buf.ByteSize();
    for (const Tuple& t : buf) p = t.Write(p);
    SEEP_CHECK(p == end);
  }
}

[[nodiscard]] Result<BufferState> BufferState::Decode(serde::Decoder* dec) {
  BufferState out;
  uint64_t n_ops;
  SEEP_ASSIGN_OR_RETURN(n_ops, dec->ReadVarint64());
  Tuple scratch;
  for (uint64_t i = 0; i < n_ops; ++i) {
    uint32_t op;
    SEEP_ASSIGN_OR_RETURN(op, dec->ReadFixed32());
    uint64_t n_tuples;
    SEEP_ASSIGN_OR_RETURN(n_tuples, dec->ReadVarint64());
    auto& buf = out.buffers_[op];
    if (n_tuples <= dec->remaining()) buf.Reserve(n_tuples);
    for (uint64_t j = 0; j < n_tuples; ++j) {
      if (!scratch.DecodeFrom(dec)) {
        return Status::Corruption("truncated or corrupt buffered tuple");
      }
      // Trims binary-search the buffer, so it must be in timestamp order
      // (equal timestamps are legal, as in Append).
      if (!buf.empty() && scratch.timestamp < buf.back().timestamp) {
        return Status::Corruption("buffered tuples out of timestamp order");
      }
      buf.Append(std::move(scratch));
    }
  }
  return out;
}

// ------------------------------------------------------------------- Routing

void RoutingState::SetRoutes(OperatorId downstream,
                             std::vector<Route> routes) {
  table_[downstream] = std::move(routes);
}

InstanceId RoutingState::RouteKey(OperatorId downstream, KeyHash key) const {
  auto it = table_.find(downstream);
  if (it == table_.end()) return kInvalidInstance;
  for (const Route& r : it->second) {
    if (r.range.Contains(key)) return r.instance;
  }
  return kInvalidInstance;
}

// ---------------------------------------------------------------- Checkpoint

size_t StateCheckpoint::ByteSize() const {
  return 64 + processing.ByteSize() + buffer.ByteSize() +
         positions.positions().size() * 16 + deleted_keys.size() * 8 +
         buffer_front.size() * 12;
}

size_t StateCheckpoint::EncodedSize() const {
  size_t total = 4 + 4 + 8 + 8 + 8;  // op, instance, origin, key range
  total += serde::Encoder::SignedVarintSize(out_clock) +
           serde::Encoder::VarintSize(seq) +
           serde::Encoder::SignedVarintSize(taken_at);
  total += positions.EncodedSize() + processing.EncodedSize() +
           buffer.EncodedSize();
  total += 1 + serde::Encoder::VarintSize(base_seq);
  total +=
      serde::Encoder::VarintSize(deleted_keys.size()) + 8 * deleted_keys.size();
  total += serde::Encoder::VarintSize(buffer_front.size());
  for (const auto& [op_id, front] : buffer_front) {
    total += 4 + serde::Encoder::SignedVarintSize(front);
  }
  return total;
}

void StateCheckpoint::Encode(serde::Encoder* enc) const {
  enc->Reserve(EncodedSize());
  enc->AppendFixed32(op);
  enc->AppendFixed32(instance);
  enc->AppendFixed64(origin);
  enc->AppendFixed64(key_range.lo);
  enc->AppendFixed64(key_range.hi);
  enc->AppendVarintSigned64(out_clock);
  enc->AppendVarint64(seq);
  enc->AppendVarintSigned64(taken_at);
  positions.Encode(enc);
  processing.Encode(enc);
  buffer.Encode(enc);
  enc->AppendU8(is_delta ? 1 : 0);
  enc->AppendVarint64(base_seq);
  enc->AppendVarint64(deleted_keys.size());
  for (KeyHash k : deleted_keys) enc->AppendFixed64(k);
  enc->AppendVarint64(buffer_front.size());
  for (const auto& [op_id, front] : buffer_front) {
    enc->AppendFixed32(op_id);
    enc->AppendVarintSigned64(front);
  }
}

[[nodiscard]]
Result<StateCheckpoint> StateCheckpoint::Decode(serde::Decoder* dec) {
  StateCheckpoint c;
  SEEP_ASSIGN_OR_RETURN(c.op, dec->ReadFixed32());
  SEEP_ASSIGN_OR_RETURN(c.instance, dec->ReadFixed32());
  SEEP_ASSIGN_OR_RETURN(c.origin, dec->ReadFixed64());
  SEEP_ASSIGN_OR_RETURN(c.key_range.lo, dec->ReadFixed64());
  SEEP_ASSIGN_OR_RETURN(c.key_range.hi, dec->ReadFixed64());
  SEEP_ASSIGN_OR_RETURN(c.out_clock, dec->ReadVarintSigned64());
  SEEP_ASSIGN_OR_RETURN(c.seq, dec->ReadVarint64());
  SEEP_ASSIGN_OR_RETURN(c.taken_at, dec->ReadVarintSigned64());
  SEEP_ASSIGN_OR_RETURN(c.positions, InputPositions::Decode(dec));
  SEEP_ASSIGN_OR_RETURN(c.processing, ProcessingState::Decode(dec));
  SEEP_ASSIGN_OR_RETURN(c.buffer, BufferState::Decode(dec));
  uint8_t is_delta;
  SEEP_ASSIGN_OR_RETURN(is_delta, dec->ReadU8());
  c.is_delta = is_delta != 0;
  SEEP_ASSIGN_OR_RETURN(c.base_seq, dec->ReadVarint64());
  uint64_t n_deleted;
  SEEP_ASSIGN_OR_RETURN(n_deleted, dec->ReadVarint64());
  for (uint64_t i = 0; i < n_deleted; ++i) {
    KeyHash k;
    SEEP_ASSIGN_OR_RETURN(k, dec->ReadFixed64());
    c.deleted_keys.push_back(k);
  }
  uint64_t n_fronts;
  SEEP_ASSIGN_OR_RETURN(n_fronts, dec->ReadVarint64());
  for (uint64_t i = 0; i < n_fronts; ++i) {
    uint32_t op_id;
    SEEP_ASSIGN_OR_RETURN(op_id, dec->ReadFixed32());
    int64_t front;
    SEEP_ASSIGN_OR_RETURN(front, dec->ReadVarintSigned64());
    c.buffer_front[op_id] = front;
  }
  return c;
}

}  // namespace seep::core
