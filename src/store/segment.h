#ifndef SEEP_STORE_SEGMENT_H_
#define SEEP_STORE_SEGMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "store/log_format.h"

namespace seep::store {

/// Fixed 16-byte segment file header: the 8-byte magic "SEEPLOG1" followed
/// by the segment id as a little-endian fixed64. A file whose header does
/// not validate is treated as fully torn (zero valid bytes).
inline constexpr size_t kSegmentHeaderBytes = 16;

/// Bytes of EncodeSegmentHeader's output for segment `id`.
std::vector<uint8_t> EncodeSegmentHeader(uint32_t id);

/// One record surfaced by the recovery scan: its decoded meta plus the file
/// offsets needed to read the payload back (and to rewrite the record
/// verbatim during compaction).
struct ScannedRecord {
  RecordMeta meta;
  uint64_t record_offset = 0;   // start of the meta frame
  uint64_t payload_offset = 0;  // start of the payload bytes
};

/// Result of scanning one segment file. `valid_bytes` is the length of the
/// longest prefix ending at a record boundary whose every frame validated;
/// everything past it is a torn tail. The scan never throws and never reads
/// past `file_size`.
struct SegmentScan {
  uint64_t id = 0;  // as the header records it, all 64 bits
  std::vector<ScannedRecord> records;
  uint64_t valid_bytes = 0;
  bool torn = false;
  std::string torn_detail;
};

/// Scans an open segment file descriptor: validates the segment header,
/// then walks records — meta frame (crc32c over the encoded RecordMeta),
/// then `payload_bytes` of payload whose own embedded frame crc32c is
/// verified — stopping at the first bad frame. Corruption is data, not an
/// error: the scan reports what survived instead of failing.
SegmentScan ScanSegment(int fd, uint64_t file_size, uint64_t max_payload);

/// Reads `n` bytes at `offset` with pread, retrying on EINTR. Returns
/// Corruption on a short read or I/O error.
[[nodiscard]] Status ReadExact(int fd, uint64_t offset, uint8_t* out, size_t n);

}  // namespace seep::store

#endif  // SEEP_STORE_SEGMENT_H_
