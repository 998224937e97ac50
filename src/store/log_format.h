#ifndef SEEP_STORE_LOG_FORMAT_H_
#define SEEP_STORE_LOG_FORMAT_H_

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/result.h"

namespace seep::store {

/// On-disk record kinds. A checkpoint record carries a payload (the
/// checkpoint's own [length | crc32c | payload] frame, written verbatim);
/// a tombstone carries none and terminally deletes its owner — instance ids
/// are never reused, so a tombstone can never be superseded by a later
/// checkpoint for the same owner.
enum class RecordType : uint8_t {
  kCheckpoint = 1,
  kTombstone = 2,
};

/// Metadata of one log record, encoded as the payload of a small crc32c
/// frame prepended to the checkpoint payload. `payload_bytes` is the exact
/// length of the payload that follows the meta frame on disk (0 for
/// tombstones), which is what lets the recovery scan skip a record without
/// decoding its checkpoint. How the payload is compressed is the payload's
/// own business: a checkpoint frame says what it holds.
struct RecordMeta {
  RecordType type = RecordType::kCheckpoint;
  InstanceId owner = kInvalidInstance;
  OperatorId owner_op = 0;
  InstanceId holder = kInvalidInstance;
  uint64_t seq = 0;
  uint64_t payload_bytes = 0;
};

/// Ceiling on an encoded RecordMeta. The recovery scan reads a meta frame
/// before trusting anything else in the record, so a corrupted length must
/// be rejected against a bound far below any plausible allocation.
inline constexpr uint64_t kMaxMetaBytes = 256;

/// Encodes `meta` and wraps it in a [length | crc32c | payload] frame —
/// the exact bytes written to disk ahead of the record payload.
std::vector<uint8_t> EncodeRecordHeader(const RecordMeta& meta);

/// Decodes a RecordMeta from an already-unframed meta payload. Returns
/// Corruption on truncation, trailing bytes, an unknown record type, an id
/// out of range or a tombstone with a payload.
[[nodiscard]]
Result<RecordMeta> DecodeRecordMeta(const uint8_t* data, size_t size);

}  // namespace seep::store

#endif  // SEEP_STORE_LOG_FORMAT_H_
