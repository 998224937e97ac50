#include "store/log_format.h"

#include <utility>

#include "serde/decoder.h"
#include "serde/encoder.h"
#include "serde/frame.h"

namespace seep::store {

std::vector<uint8_t> EncodeRecordHeader(const RecordMeta& meta) {
  serde::Encoder enc;
  enc.AppendU8(static_cast<uint8_t>(meta.type));
  enc.AppendVarint64(meta.owner);
  enc.AppendVarint64(meta.owner_op);
  enc.AppendVarint64(meta.holder);
  enc.AppendVarint64(meta.seq);
  enc.AppendVarint64(meta.payload_bytes);
  return serde::FramePayload(std::move(enc).TakeBuffer());
}

[[nodiscard]]
Result<RecordMeta> DecodeRecordMeta(const uint8_t* data, size_t size) {
  serde::Decoder dec(data, size);
  RecordMeta meta;
  SEEP_ASSIGN_OR_RETURN(const uint8_t type, dec.ReadU8());
  if (type != static_cast<uint8_t>(RecordType::kCheckpoint) &&
      type != static_cast<uint8_t>(RecordType::kTombstone)) {
    return Status::Corruption("unknown log record type");
  }
  meta.type = static_cast<RecordType>(type);
  SEEP_ASSIGN_OR_RETURN(const uint64_t owner, dec.ReadVarint64());
  SEEP_ASSIGN_OR_RETURN(const uint64_t op, dec.ReadVarint64());
  SEEP_ASSIGN_OR_RETURN(const uint64_t holder, dec.ReadVarint64());
  if (owner > kInvalidInstance || op > UINT32_MAX ||
      holder > kInvalidInstance) {
    return Status::Corruption("log record id out of range");
  }
  meta.owner = static_cast<InstanceId>(owner);
  meta.owner_op = static_cast<OperatorId>(op);
  meta.holder = static_cast<InstanceId>(holder);
  SEEP_ASSIGN_OR_RETURN(meta.seq, dec.ReadVarint64());
  SEEP_ASSIGN_OR_RETURN(meta.payload_bytes, dec.ReadVarint64());
  if (meta.type == RecordType::kTombstone && meta.payload_bytes != 0) {
    return Status::Corruption("tombstone record with payload");
  }
  if (!dec.AtEnd()) {
    return Status::Corruption("trailing bytes after log record meta");
  }
  return meta;
}

}  // namespace seep::store
