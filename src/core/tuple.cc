#include "core/tuple.h"

namespace seep::core {

using serde::Encoder;

uint8_t* Tuple::Write(uint8_t* p) const {
  p = Encoder::WriteVarintSigned64(p, timestamp);
  p = Encoder::WriteFixed64(p, key);
  p = Encoder::WriteFixed64(p, origin);
  p = Encoder::WriteVarintSigned64(p, event_time);
  for (int64_t v : ints) p = Encoder::WriteVarintSigned64(p, v);
  p = Encoder::WriteString(p, text);
  return Encoder::WriteU8(p, latency_sample ? 1 : 0);
}

void Tuple::Encode(serde::Encoder* enc) const {
  const size_t n = SerializedSize();
  uint8_t* const p = enc->Extend(n);
  uint8_t* const end = Write(p);
  SEEP_CHECK(end == p + n);
}

[[nodiscard]] bool Tuple::DecodeFrom(serde::Decoder* dec) {
  if (!dec->GetVarintSigned64(&timestamp) || !dec->GetFixed64(&key) ||
      !dec->GetFixed64(&origin) || !dec->GetVarintSigned64(&event_time)) {
    return false;
  }
  for (int64_t& v : ints) {
    if (!dec->GetVarintSigned64(&v)) return false;
  }
  uint8_t sample = 0;
  if (!dec->GetString(&text) || !dec->GetU8(&sample)) return false;
  latency_sample = sample != 0;
  return true;
}

[[nodiscard]] Result<Tuple> Tuple::Decode(serde::Decoder* dec) {
  Tuple t;
  if (!t.DecodeFrom(dec)) {
    return Status::Corruption("truncated or corrupt tuple");
  }
  return t;
}

size_t Tuple::SerializedSize() const {
  size_t n = Encoder::SignedVarintSize(timestamp) + 8 + 8 +
             Encoder::SignedVarintSize(event_time);
  for (int64_t v : ints) n += Encoder::SignedVarintSize(v);
  n += Encoder::VarintSize(text.size()) + text.size();
  return n + 1;  // + latency_sample flag
}

void TupleBatch::Encode(serde::Encoder* enc) const {
  // Sized once, written through a cursor: the header (sender, replay flag,
  // fence, count), then every tuple.
  size_t n = 4 + 1 + Encoder::VarintSize(fence_id) +
             Encoder::VarintSize(tuples.size());
  for (const Tuple& t : tuples) n += t.SerializedSize();
  uint8_t* p = enc->Extend(n);
  uint8_t* const end = p + n;
  p = Encoder::WriteFixed32(p, from);
  p = Encoder::WriteU8(p, replay ? 1 : 0);
  p = Encoder::WriteVarint64(p, fence_id);
  p = Encoder::WriteVarint64(p, tuples.size());
  for (const Tuple& t : tuples) p = t.Write(p);
  SEEP_CHECK(p == end);
}

[[nodiscard]] Result<TupleBatch> TupleBatch::Decode(serde::Decoder* dec) {
  TupleBatch batch;
  uint8_t replay = 0;
  uint64_t count = 0;
  if (!dec->GetFixed32(&batch.from) || !dec->GetU8(&replay) ||
      !dec->GetVarint64(&batch.fence_id) || !dec->GetVarint64(&count)) {
    return Status::Corruption("truncated tuple batch header");
  }
  batch.replay = replay != 0;
  // A tuple encodes to >= 19 bytes; a declared count beyond what the buffer
  // could possibly hold is corruption, caught before reserving memory.
  if (count > dec->remaining() / 19 + 1) {
    return Status::Corruption("batch tuple count exceeds buffer");
  }
  batch.tuples.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    if (!batch.tuples.emplace_back().DecodeFrom(dec)) {
      return Status::Corruption("truncated or corrupt tuple in batch");
    }
  }
  return batch;
}

size_t TupleBatch::SerializedSize() const {
  size_t n = 16;  // header: sender + count
  for (const Tuple& t : tuples) n += t.SerializedSize();
  return n;
}

}  // namespace seep::core
