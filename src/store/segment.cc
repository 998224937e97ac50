#include "store/segment.h"

#include <errno.h>
#include <unistd.h>

#include <cstring>
#include <utility>
#include <sstream>

#include "serde/crc32c.h"
#include "serde/encoder.h"
#include "serde/frame.h"

namespace seep::store {
namespace {

constexpr char kSegmentMagic[8] = {'S', 'E', 'E', 'P', 'L', 'O', 'G', '1'};

/// Marks the scan torn at `pos` and stops it. valid_bytes stays wherever
/// the last good record ended.
void MarkTorn(SegmentScan* scan, uint64_t pos, const std::string& why) {
  scan->torn = true;
  std::ostringstream msg;
  msg << "torn at offset " << pos << ": " << why;
  scan->torn_detail = msg.str();
}

}  // namespace

std::vector<uint8_t> EncodeSegmentHeader(uint32_t id) {
  serde::Encoder enc;
  enc.AppendRaw(kSegmentMagic, sizeof(kSegmentMagic));
  enc.AppendFixed64(id);
  return std::move(enc).TakeBuffer();
}

[[nodiscard]]
Status ReadExact(int fd, uint64_t offset, uint8_t* out, size_t n) {
  size_t done = 0;
  while (done < n) {
    const ssize_t r = ::pread(fd, out + done, n - done,
                              static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::Corruption(std::string("pread: ") +
                                std::strerror(errno));
    }
    if (r == 0) return Status::Corruption("pread: unexpected end of file");
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

SegmentScan ScanSegment(int fd, uint64_t file_size, uint64_t max_payload) {
  SegmentScan scan;
  uint8_t header[kSegmentHeaderBytes];
  if (file_size < kSegmentHeaderBytes ||
      !ReadExact(fd, 0, header, sizeof(header)).ok() ||
      std::memcmp(header, kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    MarkTorn(&scan, 0, "bad segment header");
    return scan;
  }
  for (int i = 0; i < 8; ++i) {
    scan.id |= uint64_t(header[8 + i]) << (8 * i);
  }
  uint64_t pos = kSegmentHeaderBytes;
  scan.valid_bytes = pos;

  std::vector<uint8_t> buf;
  while (pos < file_size) {
    // Meta frame: [length | crc32c | encoded RecordMeta].
    uint8_t fh[serde::kFrameHeaderBytes];
    if (pos + sizeof(fh) > file_size ||
        !ReadExact(fd, pos, fh, sizeof(fh)).ok()) {
      MarkTorn(&scan, pos, "truncated meta frame header");
      return scan;
    }
    auto mh = serde::ReadFrameHeader(fh, sizeof(fh), kMaxMetaBytes);
    if (!mh.ok()) {
      MarkTorn(&scan, pos, mh.status().message());
      return scan;
    }
    const uint64_t meta_len = mh->payload_len;
    if (pos + sizeof(fh) + meta_len > file_size) {
      MarkTorn(&scan, pos, "truncated meta frame payload");
      return scan;
    }
    buf.resize(meta_len);
    if (!ReadExact(fd, pos + sizeof(fh), buf.data(), meta_len).ok()) {
      MarkTorn(&scan, pos, "meta frame payload read failed");
      return scan;
    }
    if (serde::Crc32c(buf.data(), buf.size()) != mh->crc) {
      MarkTorn(&scan, pos, "meta frame crc mismatch");
      return scan;
    }
    auto meta = DecodeRecordMeta(buf.data(), buf.size());
    if (!meta.ok()) {
      MarkTorn(&scan, pos, meta.status().message());
      return scan;
    }

    ScannedRecord rec;
    rec.meta = *meta;
    rec.record_offset = pos;
    rec.payload_offset = pos + sizeof(fh) + meta_len;

    // Payload: the checkpoint's own crc32c frame, validated end to end so a
    // record whose bytes the index would later serve is known intact now.
    if (rec.meta.payload_bytes > 0) {
      if (rec.meta.payload_bytes > max_payload + serde::kFrameHeaderBytes) {
        MarkTorn(&scan, pos, "payload larger than frame ceiling");
        return scan;
      }
      if (rec.payload_offset + rec.meta.payload_bytes > file_size) {
        MarkTorn(&scan, pos, "truncated record payload");
        return scan;
      }
      buf.resize(rec.meta.payload_bytes);
      if (!ReadExact(fd, rec.payload_offset, buf.data(), buf.size()).ok()) {
        MarkTorn(&scan, pos, "record payload read failed");
        return scan;
      }
      auto ph = serde::ReadFrameHeader(buf.data(), buf.size(), max_payload);
      if (!ph.ok()) {
        MarkTorn(&scan, pos, ph.status().message());
        return scan;
      }
      if (serde::kFrameHeaderBytes + ph->payload_len !=
          rec.meta.payload_bytes) {
        MarkTorn(&scan, pos, "payload frame length disagrees with meta");
        return scan;
      }
      if (serde::Crc32c(buf.data() + serde::kFrameHeaderBytes,
                        ph->payload_len) != ph->crc) {
        MarkTorn(&scan, pos, "payload frame crc mismatch");
        return scan;
      }
    }

    pos = rec.payload_offset + rec.meta.payload_bytes;
    scan.valid_bytes = pos;
    scan.records.push_back(rec);
  }
  return scan;
}

}  // namespace seep::store
