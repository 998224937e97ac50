#include "core/state.h"

#include <algorithm>
#include <cstring>

namespace seep::core {

// ---------------------------------------------------------------- Processing

void ProcessingState::EnsureSorted() const {
  if (sorted_) return;
  // Stable so entries with colliding key hashes keep a deterministic
  // (insertion) order — Encode output must be canonical. Only the slots
  // move; the values stay where Add put them.
  std::stable_sort(slots_.begin(), slots_.end(),
                   [](const Slot& a, const Slot& b) { return a.key < b.key; });
  sorted_ = true;
}

ProcessingState ProcessingState::FilterByRange(const KeyRange& range) const {
  SEEP_DCHECK_LE(range.lo, range.hi);
  EnsureSorted();
  const auto first = std::lower_bound(
      slots_.begin(), slots_.end(), range.lo,
      [](const Slot& s, KeyHash k) { return s.key < k; });
  const auto last = std::upper_bound(
      first, slots_.end(), range.hi,
      [](KeyHash k, const Slot& s) { return k < s.key; });
  size_t value_bytes = 0;
  for (auto it = first; it != last; ++it) value_bytes += it->length;
  ProcessingState out;
  out.Reserve(static_cast<size_t>(last - first), value_bytes);
  for (auto it = first; it != last; ++it) out.Add(it->key, Value(*it));
  return out;
}

void ProcessingState::MergeFrom(const ProcessingState& other) {
  SEEP_DCHECK(&other != this);
  if (other.slots_.empty()) return;
  EnsureSorted();
  other.EnsureSorted();
  const size_t rebase = arena_.size();
  arena_.append(other.arena_);
  const size_t mid = slots_.size();
  slots_.reserve(mid + other.slots_.size());
  for (Slot s : other.slots_) {
    s.offset += rebase;
    slots_.push_back(s);
  }
  // Scale-in merges adjacent key ranges, so one side usually follows the
  // other entirely and the appended slots are already in order. Otherwise
  // a stable merge keeps this state's entries ahead of equal keys.
  if (mid > 0 && slots_[mid].key < slots_[mid - 1].key) {
    std::inplace_merge(
        slots_.begin(), slots_.begin() + static_cast<ptrdiff_t>(mid),
        slots_.end(),
        [](const Slot& a, const Slot& b) { return a.key < b.key; });
  }
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

  ProcessingState merged;
  merged.Reserve(slots_.size() + updated.slots_.size(),
                 arena_.size() + updated.arena_.size());
  size_t i = 0, j = 0;
  const auto& upd = updated.slots_;
  while (i < slots_.size() || j < upd.size()) {
    // For one key, the delta's (last) entry supersedes the base's; a
    // deletion supersedes both.
    if (j == upd.size() || (i < slots_.size() && slots_[i].key < upd[j].key)) {
      if (!is_dead(slots_[i].key)) merged.Add(slots_[i].key, Value(slots_[i]));
      ++i;
      continue;
    }
    const KeyHash key = upd[j].key;
    while (j + 1 < upd.size() && upd[j + 1].key == key) ++j;  // last wins
    if (!is_dead(key)) merged.Add(key, updated.Value(upd[j]));
    ++j;
    while (i < slots_.size() && slots_[i].key == key) ++i;  // replaced
  }
  *this = std::move(merged);
}

size_t ProcessingState::EncodedSize() const {
  size_t total = serde::Encoder::VarintSize(slots_.size()) + ByteSize();
  for (const Slot& s : slots_) total += serde::Encoder::VarintSize(s.length);
  return total;
}

void ProcessingState::Encode(serde::Encoder* enc) const {
  EnsureSorted();
  enc->AppendVarint64(slots_.size());
  // The payload size is knowable exactly (ByteSize() counts 8 bytes per key
  // plus the value bytes; only the length varints are extra), so the whole
  // state is emitted into one Extend() region with raw pointer writes — no
  // per-append bounds checks on the serialisation hot path.
  size_t total = ByteSize();
  for (const Slot& s : slots_) total += serde::Encoder::VarintSize(s.length);
  uint8_t* p = enc->Extend(total);
  for (const Slot& s : slots_) {
    p = serde::Encoder::WriteFixed64(p, s.key);
    p = serde::Encoder::WriteString(p, Value(s));
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
    std::string_view v;
    if (!dec->GetFixed64(&k) || !dec->GetStringView(&v)) {
      return Status::Corruption("truncated or corrupt state entry");
    }
    out.Add(k, v);
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

void TupleBuffer::Append(const Tuple& t) {
  // UpperBound/Trim binary-search on timestamp order; an out-of-order
  // append would silently corrupt trims.
  SEEP_DCHECK(slots_.empty() || slots_.back().timestamp <= t.timestamp);
  // Sized by the bound, cut to the cursor: the tuple is written once and
  // never sized.
  const size_t at = bytes_.size();
  bytes_.resize(at + t.MaxSerializedSize());
  const uint8_t* const end = t.Write(bytes_.data() + at);
  bytes_.resize(static_cast<size_t>(end - bytes_.data()));
  slots_.push_back(Slot{t.timestamp, t.event_time, at});
}

void TupleBuffer::AppendFrom(const TupleBuffer& other, size_t first) {
  if (first >= other.size()) return;
  const auto from = other.slots_.begin() +
                    static_cast<ptrdiff_t>(other.front_ + first);
  SEEP_DCHECK(slots_.empty() || slots_.back().timestamp <= from->timestamp);
  // One byte range, and the slots over it shifted by the distance it moved.
  const size_t base = from->offset;
  const size_t at = bytes_.size();
  bytes_.insert(bytes_.end(),
                other.bytes_.begin() + static_cast<ptrdiff_t>(base),
                other.bytes_.end());
  const size_t old = slots_.size();
  slots_.insert(slots_.end(), from, other.slots_.end());
  for (size_t k = old; k < slots_.size(); ++k) {
    slots_[k].offset = slots_[k].offset - base + at;
  }
}

Tuple TupleBuffer::At(size_t i) const {
  const size_t k = front_ + i;
  SEEP_CHECK_LT(k, slots_.size());
  const size_t begin = slots_[k].offset;
  const size_t end =
      k + 1 < slots_.size() ? slots_[k + 1].offset : bytes_.size();
  serde::Decoder dec(bytes_.data() + begin, end - begin);
  Tuple t;
  // Append wrote these bytes, or DecodeAppend checked them.
  const bool ok = t.DecodeFrom(&dec);
  SEEP_CHECK(ok && dec.AtEnd());
  return t;
}

size_t TupleBuffer::UpperBound(int64_t timestamp) const {
  const auto live = slots_.begin() + static_cast<ptrdiff_t>(front_);
  return static_cast<size_t>(
      std::partition_point(live, slots_.end(),
                           [timestamp](const Slot& s) {
                             return s.timestamp <= timestamp;
                           }) -
      live);
}

size_t TupleBuffer::TrimThroughTimestamp(int64_t up_to) {
  // Appends come from a monotone logical clock, so the buffer is sorted by
  // timestamp and the trim point is a binary search.
  const size_t dropped = UpperBound(up_to);
  front_ += dropped;
  MaybeCompact();
  return dropped;
}

size_t TupleBuffer::TrimBeforeEventTime(SimTime cutoff) {
  // Event times are not strictly append-ordered (window-close emissions
  // carry the close time, which can precede a later tuple's source time), so
  // a binary search would be unsound; walk the dropped prefix instead.
  size_t dropped = 0;
  while (front_ != slots_.size() && slots_[front_].event_time < cutoff) {
    ++front_;
    ++dropped;
  }
  MaybeCompact();
  return dropped;
}

void TupleBuffer::MaybeCompact() {
  // Reclaim the dead prefix once it dominates the live region: each tuple's
  // bytes and slot are then moved at most O(1) amortised times over its
  // lifetime. The surviving slots are rebased onto the moved bytes.
  if (front_ < 32 || front_ * 2 < slots_.size()) return;
  const size_t dead = LiveOffset();
  bytes_.erase(bytes_.begin(), bytes_.begin() + static_cast<ptrdiff_t>(dead));
  slots_.erase(slots_.begin(), slots_.begin() + static_cast<ptrdiff_t>(front_));
  for (Slot& s : slots_) s.offset -= dead;
  front_ = 0;
}

void TupleBuffer::Encode(serde::Encoder* enc) const {
  enc->AppendVarint64(size());
  enc->AppendRaw(bytes_.data() + LiveOffset(), ByteSize());
}

[[nodiscard]] Status TupleBuffer::DecodeAppend(serde::Decoder* dec) {
  uint64_t n_tuples;
  SEEP_ASSIGN_OR_RETURN(n_tuples, dec->ReadVarint64());
  if (n_tuples <= dec->remaining()) slots_.reserve(slots_.size() + n_tuples);
  const size_t mark = dec->position();
  const size_t at = bytes_.size();
  Tuple scratch;
  for (uint64_t j = 0; j < n_tuples; ++j) {
    const size_t offset = at + (dec->position() - mark);
    if (!scratch.DecodeFrom(dec)) {
      return Status::Corruption("truncated or corrupt buffered tuple");
    }
    // Trims binary-search the buffer, so it must be in timestamp order.
    if (!slots_.empty() && scratch.timestamp < slots_.back().timestamp) {
      return Status::Corruption("buffered tuples out of timestamp order");
    }
    slots_.push_back(Slot{scratch.timestamp, scratch.event_time, offset});
  }
  const std::span<const uint8_t> raw = dec->BytesSince(mark);
  bytes_.insert(bytes_.end(), raw.begin(), raw.end());
  return Status::OK();
}

// -------------------------------------------------------------------- Buffer

void BufferState::AppendFrom(OperatorId downstream, const TupleBuffer& from,
                             size_t first) {
  if (first < from.size()) buffers_[downstream].AppendFrom(from, first);
}

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
    buf.Encode(enc);
  }
}

[[nodiscard]] Result<BufferState> BufferState::Decode(serde::Decoder* dec) {
  BufferState out;
  uint64_t n_ops;
  SEEP_ASSIGN_OR_RETURN(n_ops, dec->ReadVarint64());
  for (uint64_t i = 0; i < n_ops; ++i) {
    uint32_t op;
    SEEP_ASSIGN_OR_RETURN(op, dec->ReadFixed32());
    // A repeated downstream continues its buffer, order-checked across.
    SEEP_RETURN_IF_ERROR(out.buffers_[op].DecodeAppend(dec));
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
