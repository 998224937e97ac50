#include "store/checkpoint_log.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/macros.h"
#include "serde/crc32c.h"
#include "store/segment.h"

namespace seep::store {
namespace {

constexpr char kSegmentPrefix[] = "seg-";
constexpr char kSegmentSuffix[] = ".seeplog";

std::string SegmentFileName(uint32_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%08u%s", kSegmentPrefix, id,
                kSegmentSuffix);
  return buf;
}

/// Parses "seg-<8 digits>.seeplog"; returns false for anything else.
bool ParseSegmentFileName(const std::string& name, uint32_t* id) {
  const std::string prefix = kSegmentPrefix;
  const std::string suffix = kSegmentSuffix;
  if (name.size() != prefix.size() + 8 + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = prefix.size(); i < prefix.size() + 8; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    v = v * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *id = static_cast<uint32_t>(v);
  return true;
}

[[nodiscard]]
Status WriteExact(int fd, uint64_t offset, const uint8_t* data, size_t n) {
  size_t done = 0;
  while (done < n) {
    const ssize_t w = ::pwrite(fd, data + done, n - done,
                               static_cast<off_t>(offset + done));
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("pwrite: ") +
                              std::strerror(errno));
    }
    done += static_cast<size_t>(w);
  }
  return Status::OK();
}

[[nodiscard]] Status FsyncFd(int fd) {
  while (::fdatasync(fd) != 0) {
    if (errno == EINTR) continue;
    return Status::Internal(std::string("fdatasync: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

/// Durability of file creation needs the directory entry flushed too.
[[nodiscard]] Status FsyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Internal(std::string("open dir: ") +
                            std::strerror(errno));
  }
  Status st = Status::OK();
  if (::fsync(fd) != 0) {
    st = Status::Internal(std::string("fsync dir: ") + std::strerror(errno));
  }
  ::close(fd);
  return st;
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Order-independent replay of scanned records into (live, tombstoned):
/// a tombstone is terminal for its owner; otherwise the highest seq wins.
/// Shared by Recover and VerifyIndex so both agree on semantics.
struct ReplayState {
  struct Live {
    RecordMeta meta;
    uint32_t segment = 0;
    uint64_t record_offset = 0;
    uint64_t payload_offset = 0;
    uint64_t record_bytes = 0;
  };
  std::map<InstanceId, Live> live;
  std::map<InstanceId, Live> tombstones;

  void Apply(uint32_t segment, const ScannedRecord& rec,
             uint64_t record_bytes) {
    Live entry;
    entry.meta = rec.meta;
    entry.segment = segment;
    entry.record_offset = rec.record_offset;
    entry.payload_offset = rec.payload_offset;
    entry.record_bytes = record_bytes;
    const InstanceId owner = rec.meta.owner;
    if (rec.meta.type == RecordType::kTombstone) {
      live.erase(owner);
      tombstones.emplace(owner, entry);
      return;
    }
    if (tombstones.count(owner) != 0) return;  // never resurrect
    auto it = live.find(owner);
    if (it == live.end() || rec.meta.seq >= it->second.meta.seq) {
      live[owner] = entry;
    }
  }
};

uint64_t RecordBytes(const ScannedRecord& rec) {
  return (rec.payload_offset - rec.record_offset) + rec.meta.payload_bytes;
}

}  // namespace

CheckpointLog::CheckpointLog(CheckpointLogConfig config)
    : config_(std::move(config)) {}

[[nodiscard]] Result<std::unique_ptr<CheckpointLog>> CheckpointLog::Open(
    CheckpointLogConfig config) {
  if (config.directory.empty()) {
    return Status::InvalidArgument("checkpoint log needs a directory");
  }
  std::error_code ec;
  std::filesystem::create_directories(config.directory, ec);
  if (ec) {
    return Status::Internal("create " + config.directory + ": " +
                            ec.message());
  }
  std::unique_ptr<CheckpointLog> log(new CheckpointLog(std::move(config)));
  SEEP_RETURN_IF_ERROR(log->Recover());
  return log;
}

CheckpointLog::~CheckpointLog() {
  if (config_.fsync != FsyncPolicy::kNever) {
    // A destructor cannot propagate, but a failed final fsync is
    // potential data loss and must at least be observable.
    const Status final_sync = MaybeFsync(/*force=*/true);
    if (!final_sync.ok()) {
      SEEP_LOG(kWarn, 0) << "final fsync on close failed: "
                         << final_sync.message();
    }
  }
  for (auto& [id, seg] : segments_) {
    if (seg.fd >= 0) ::close(seg.fd);
  }
}

[[nodiscard]] Status CheckpointLog::Recover() {
  const uint64_t t0 = NowNanos();
  std::vector<std::pair<uint32_t, std::string>> files;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(config_.directory, ec)) {
    uint32_t id = 0;
    if (ParseSegmentFileName(entry.path().filename().string(), &id)) {
      files.emplace_back(id, entry.path().string());
    }
  }
  if (ec) {
    return Status::Internal("list " + config_.directory + ": " +
                            ec.message());
  }
  std::sort(files.begin(), files.end());

  ReplayState replay;
  for (const auto& [id, path] : files) {
    const int fd = ::open(path.c_str(), O_RDWR);
    if (fd < 0) {
      return Status::Internal("open " + path + ": " + std::strerror(errno));
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Status::Internal("fstat " + path + ": " + std::strerror(errno));
    }
    const auto size = static_cast<uint64_t>(st.st_size);
    SegmentScan scan = ScanSegment(fd, size, config_.max_payload);
    ++recovery_info_.segments_scanned;
    // A file whose header did not validate (or that recorded a different
    // id than its name) contributes nothing; drop it entirely.
    if (scan.valid_bytes < kSegmentHeaderBytes || scan.id != id) {
      recovery_info_.torn = true;
      recovery_info_.torn_detail = path + ": " +
                                   (scan.torn_detail.empty()
                                        ? "segment id mismatch"
                                        : scan.torn_detail);
      recovery_info_.torn_bytes += size;
      ::close(fd);
      ::unlink(path.c_str());
      continue;
    }
    if (scan.valid_bytes < size) {
      // Torn tail: truncate at the first bad frame so the file and the
      // replayed index agree byte for byte.
      recovery_info_.torn = true;
      recovery_info_.torn_detail = path + ": " + scan.torn_detail;
      recovery_info_.torn_bytes += size - scan.valid_bytes;
      if (::ftruncate(fd, static_cast<off_t>(scan.valid_bytes)) != 0) {
        ::close(fd);
        return Status::Internal("ftruncate " + path + ": " +
                                std::strerror(errno));
      }
    }
    for (const auto& rec : scan.records) {
      replay.Apply(id, rec, RecordBytes(rec));
      ++recovery_info_.records_scanned;
    }
    Segment seg;
    seg.path = path;
    seg.fd = fd;
    seg.bytes = scan.valid_bytes;
    seg.sealed = true;  // the highest id is unsealed below
    segments_.emplace(id, seg);
  }

  for (const auto& [owner, live] : replay.live) {
    IndexEntry e;
    e.meta = live.meta;
    e.segment = live.segment;
    e.record_offset = live.record_offset;
    e.payload_offset = live.payload_offset;
    e.record_bytes = live.record_bytes;
    index_.emplace(owner, e);
    segments_[live.segment].live += live.record_bytes;
  }
  for (const auto& [owner, tomb] : replay.tombstones) {
    IndexEntry e;
    e.meta = tomb.meta;
    e.segment = tomb.segment;
    e.record_offset = tomb.record_offset;
    e.payload_offset = tomb.payload_offset;
    e.record_bytes = tomb.record_bytes;
    tombstones_.emplace(owner, e);
    segments_[tomb.segment].live += tomb.record_bytes;
  }

  if (segments_.empty()) {
    SEEP_RETURN_IF_ERROR(CreateSegment(next_segment_id_));
    next_segment_id_ += 1;
  } else {
    active_id_ = segments_.rbegin()->first;
    segments_[active_id_].sealed = false;
    next_segment_id_ = active_id_ + 1;
  }
  last_fsync_ = std::chrono::steady_clock::now();

  recovery_info_.live_records = index_.size();
  const uint64_t nanos = NowNanos() - t0;
  metrics_.recovery_scan_nanos.store(nanos, std::memory_order_relaxed);
  metrics_.recovery_records_scanned.store(recovery_info_.records_scanned,
                                          std::memory_order_relaxed);
  metrics_.recovery_torn_bytes.store(recovery_info_.torn_bytes,
                                     std::memory_order_relaxed);
  return Status::OK();
}

[[nodiscard]] Status CheckpointLog::CreateSegment(uint32_t id) {
  Segment seg;
  seg.path = config_.directory + "/" + SegmentFileName(id);
  seg.fd = ::open(seg.path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (seg.fd < 0) {
    return Status::Internal("open " + seg.path + ": " +
                            std::strerror(errno));
  }
  const std::vector<uint8_t> header = EncodeSegmentHeader(id);
  Status st = WriteExact(seg.fd, 0, header.data(), header.size());
  if (st.ok() && config_.fsync != FsyncPolicy::kNever) {
    st = FsyncFd(seg.fd);
    if (st.ok()) st = FsyncDirectory(config_.directory);
  }
  if (!st.ok()) {
    ::close(seg.fd);
    return st;
  }
  seg.bytes = header.size();
  segments_.emplace(id, seg);
  active_id_ = id;
  return Status::OK();
}

[[nodiscard]] Status CheckpointLog::RollSegment() {
  Segment& act = segments_[active_id_];
  if (config_.fsync != FsyncPolicy::kNever) {
    SEEP_RETURN_IF_ERROR(FsyncFd(act.fd));
    dirty_since_fsync_ = false;
  }
  act.sealed = true;
  const uint32_t id = next_segment_id_;
  next_segment_id_ += 1;
  return CreateSegment(id);
}

[[nodiscard]] Status CheckpointLog::AppendRecord(const RecordMeta& meta,
                                                const uint8_t* payload,
                                                size_t n, IndexEntry* out) {
  const std::vector<uint8_t> header = EncodeRecordHeader(meta);
  const uint64_t rec_bytes = header.size() + n;
  {
    const Segment& act = segments_[active_id_];
    if (act.bytes > kSegmentHeaderBytes &&
        act.bytes + rec_bytes > config_.segment_bytes) {
      SEEP_RETURN_IF_ERROR(RollSegment());
    }
  }
  Segment& act = segments_[active_id_];
  SEEP_RETURN_IF_ERROR(
      WriteExact(act.fd, act.bytes, header.data(), header.size()));
  if (n > 0) {
    SEEP_RETURN_IF_ERROR(
        WriteExact(act.fd, act.bytes + header.size(), payload, n));
  }
  out->meta = meta;
  out->segment = active_id_;
  out->record_offset = act.bytes;
  out->payload_offset = act.bytes + header.size();
  out->record_bytes = rec_bytes;
  act.bytes += rec_bytes;
  act.live += rec_bytes;
  dirty_since_fsync_ = true;
  metrics_.append_bytes.fetch_add(rec_bytes, std::memory_order_relaxed);
  return MaybeFsync(/*force=*/false);
}

[[nodiscard]] Status CheckpointLog::MaybeFsync(bool force) {
  if (!dirty_since_fsync_ && !force) return Status::OK();
  bool do_sync = force;
  switch (config_.fsync) {
    case FsyncPolicy::kAlways:
      do_sync = true;
      break;
    case FsyncPolicy::kIntervalMs: {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_fsync_ >=
          std::chrono::milliseconds(config_.fsync_interval_ms)) {
        do_sync = true;
      }
      break;
    }
    case FsyncPolicy::kNever:
      break;
  }
  if (!do_sync) return Status::OK();
  const uint64_t t0 = NowNanos();
  SEEP_RETURN_IF_ERROR(FsyncFd(segments_[active_id_].fd));
  metrics_.RecordFsync(NowNanos() - t0);
  last_fsync_ = std::chrono::steady_clock::now();
  dirty_since_fsync_ = false;
  return Status::OK();
}

[[nodiscard]]
Status CheckpointLog::Append(RecordMeta meta, const uint8_t* payload,
                             size_t n) {
  if (n == 0) {
    return Status::InvalidArgument("checkpoint record needs a payload");
  }
  if (n > config_.max_payload + serde::kFrameHeaderBytes) {
    return Status::InvalidArgument("checkpoint payload exceeds frame "
                                   "ceiling");
  }
  meta.type = RecordType::kCheckpoint;
  meta.payload_bytes = n;
  if (tombstones_.count(meta.owner) != 0) {
    return Status::FailedPrecondition("owner is tombstoned");
  }
  IndexEntry e;
  SEEP_RETURN_IF_ERROR(AppendRecord(meta, payload, n, &e));
  auto [it, inserted] = index_.try_emplace(meta.owner, e);
  if (!inserted) {
    segments_[it->second.segment].live -= it->second.record_bytes;
    it->second = e;
  }
  metrics_.appends.fetch_add(1, std::memory_order_relaxed);
  MaybeCompact();
  return Status::OK();
}

[[nodiscard]] Status CheckpointLog::AppendTombstone(InstanceId owner) {
  if (tombstones_.count(owner) != 0) return Status::OK();
  RecordMeta meta;
  meta.type = RecordType::kTombstone;
  meta.owner = owner;
  IndexEntry e;
  SEEP_RETURN_IF_ERROR(AppendRecord(meta, nullptr, 0, &e));
  auto it = index_.find(owner);
  if (it != index_.end()) {
    segments_[it->second.segment].live -= it->second.record_bytes;
    index_.erase(it);
  }
  tombstones_.emplace(owner, e);
  metrics_.tombstones.fetch_add(1, std::memory_order_relaxed);
  MaybeCompact();
  return Status::OK();
}

[[nodiscard]] Result<std::vector<uint8_t>> CheckpointLog::ReadPayload(
    InstanceId owner) const {
  auto it = index_.find(owner);
  if (it == index_.end()) {
    return Status::NotFound("no live checkpoint for owner");
  }
  const IndexEntry& e = it->second;
  std::vector<uint8_t> buf(e.meta.payload_bytes);
  auto seg = segments_.find(e.segment);
  SEEP_CHECK(seg != segments_.end());
  SEEP_RETURN_IF_ERROR(
      ReadExact(seg->second.fd, e.payload_offset, buf.data(), buf.size()));
  metrics_.reads.fetch_add(1, std::memory_order_relaxed);
  metrics_.read_bytes.fetch_add(buf.size(), std::memory_order_relaxed);
  return buf;
}

std::optional<RecordMeta> CheckpointLog::Find(InstanceId owner) const {
  auto it = index_.find(owner);
  if (it == index_.end()) return std::nullopt;
  return it->second.meta;
}

bool CheckpointLog::Has(InstanceId owner) const {
  return index_.count(owner) != 0;
}

std::vector<RecordMeta> CheckpointLog::LiveRecords() const {
  std::vector<RecordMeta> out;
  out.reserve(index_.size());
  for (const auto& [owner, e] : index_) out.push_back(e.meta);
  return out;
}

[[nodiscard]] Status CheckpointLog::Flush() {
  return MaybeFsync(/*force=*/true);
}

bool CheckpointLog::CompactionNeeded() const {
  uint64_t sealed_payload = 0;
  uint64_t sealed_live = 0;
  for (const auto& [id, seg] : segments_) {
    if (!seg.sealed) continue;
    sealed_payload += seg.bytes - kSegmentHeaderBytes;
    sealed_live += seg.live;
  }
  if (sealed_payload == 0) return false;
  const uint64_t dead = sealed_payload - sealed_live;
  if (dead < config_.compact_min_bytes) return false;
  return static_cast<double>(dead) >=
         config_.compact_min_dead_ratio *
             static_cast<double>(sealed_payload);
}

void CheckpointLog::MaybeCompact() {
  if (CompactionNeeded()) last_compaction_error_ = CompactNow();
}

[[nodiscard]] Status CheckpointLog::CompactNow() {
  std::vector<uint32_t> victims;
  uint64_t bytes_in = 0;
  for (const auto& [id, seg] : segments_) {
    if (!seg.sealed) continue;
    victims.push_back(id);
    bytes_in += seg.bytes;
  }
  if (victims.empty()) return Status::OK();
  // Every live record and tombstone still in a sealed segment survives.
  std::vector<IndexEntry*> survivors;
  for (auto* table : {&index_, &tombstones_}) {
    for (auto& [owner, e] : *table) {
      if (segments_[e.segment].sealed) survivors.push_back(&e);
    }
  }

  // Rewrite the survivors verbatim into a fresh sealed segment, durable
  // before the index moves: a crash mid-pass leaves the victims intact, and
  // replay is independent of segment order.
  const uint32_t new_id = next_segment_id_;
  next_segment_id_ += 1;
  Segment fresh;
  fresh.sealed = true;
  std::vector<uint64_t> offsets(survivors.size());  // new record offsets
  if (!survivors.empty()) {
    fresh.path = config_.directory + "/" + SegmentFileName(new_id);
    fresh.fd = ::open(fresh.path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    Status st = Status::OK();
    if (fresh.fd < 0) {
      st = Status::Internal("open " + fresh.path + ": " +
                            std::strerror(errno));
    } else {
      const std::vector<uint8_t> header = EncodeSegmentHeader(new_id);
      st = WriteExact(fresh.fd, 0, header.data(), header.size());
      fresh.bytes = header.size();
    }
    std::vector<uint8_t> buf;
    for (size_t i = 0; st.ok() && i < survivors.size(); ++i) {
      const IndexEntry& e = *survivors[i];
      buf.resize(e.record_bytes);
      st = ReadExact(segments_[e.segment].fd, e.record_offset, buf.data(),
                     buf.size());
      if (st.ok()) {
        st = WriteExact(fresh.fd, fresh.bytes, buf.data(), buf.size());
      }
      offsets[i] = fresh.bytes;
      fresh.bytes += e.record_bytes;
    }
    if (st.ok() && config_.fsync != FsyncPolicy::kNever) {
      st = FsyncFd(fresh.fd);
      if (st.ok()) st = FsyncDirectory(config_.directory);
    }
    if (!st.ok()) {
      // Failed pass: drop the half-written output, keep the victims.
      if (fresh.fd >= 0) {
        ::close(fresh.fd);
        ::unlink(fresh.path.c_str());
      }
      return st;
    }
  }

  // Only now move the index entries and unlink the victims.
  for (size_t i = 0; i < survivors.size(); ++i) {
    IndexEntry& e = *survivors[i];
    e.payload_offset = offsets[i] + (e.payload_offset - e.record_offset);
    e.record_offset = offsets[i];
    e.segment = new_id;
    fresh.live += e.record_bytes;
  }
  if (!survivors.empty()) segments_.emplace(new_id, fresh);
  for (uint32_t id : victims) {
    auto it = segments_.find(id);
    ::close(it->second.fd);
    ::unlink(it->second.path.c_str());
    segments_.erase(it);
  }
  metrics_.compactions.fetch_add(1, std::memory_order_relaxed);
  metrics_.compaction_bytes_in.fetch_add(bytes_in, std::memory_order_relaxed);
  metrics_.compaction_bytes_out.fetch_add(fresh.bytes,
                                          std::memory_order_relaxed);
  return Status::OK();
}

[[nodiscard]] Status CheckpointLog::SpotCheck(InstanceId owner) const {
  auto it = index_.find(owner);
  if (it == index_.end()) {
    return Status::NotFound("no live checkpoint for owner");
  }
  const IndexEntry& e = it->second;
  auto seg = segments_.find(e.segment);
  SEEP_CHECK(seg != segments_.end());
  uint8_t fh[serde::kFrameHeaderBytes];
  SEEP_RETURN_IF_ERROR(
      ReadExact(seg->second.fd, e.record_offset, fh, sizeof(fh)));
  SEEP_ASSIGN_OR_RETURN(const serde::FrameHeader header,
                        serde::ReadFrameHeader(fh, sizeof(fh),
                                               kMaxMetaBytes));
  std::vector<uint8_t> buf(header.payload_len);
  SEEP_RETURN_IF_ERROR(ReadExact(seg->second.fd,
                                 e.record_offset + sizeof(fh), buf.data(),
                                 buf.size()));
  if (serde::Crc32c(buf.data(), buf.size()) != header.crc) {
    return Status::Corruption("meta frame crc mismatch on disk");
  }
  SEEP_ASSIGN_OR_RETURN(const RecordMeta disk,
                        DecodeRecordMeta(buf.data(), buf.size()));
  if (disk.owner != e.meta.owner || disk.seq != e.meta.seq ||
      disk.payload_bytes != e.meta.payload_bytes) {
    std::ostringstream msg;
    msg << "index/disk divergence for instance " << owner << ": index seq "
        << e.meta.seq << " disk seq " << disk.seq;
    return Status::Corruption(msg.str());
  }
  return Status::OK();
}

[[nodiscard]] Status CheckpointLog::VerifyIndex() const {
  ReplayState replay;
  for (const auto& [id, seg] : segments_) {
    SegmentScan scan = ScanSegment(seg.fd, seg.bytes, config_.max_payload);
    if (scan.torn || scan.valid_bytes != seg.bytes) {
      return Status::Corruption(seg.path + " no longer scans clean: " +
                                scan.torn_detail);
    }
    for (const auto& rec : scan.records) {
      replay.Apply(id, rec, RecordBytes(rec));
    }
  }
  if (replay.live.size() != index_.size()) {
    std::ostringstream msg;
    msg << "index has " << index_.size() << " live owners, log replays "
        << replay.live.size();
    return Status::Corruption(msg.str());
  }
  for (const auto& [owner, e] : index_) {
    auto it = replay.live.find(owner);
    if (it == replay.live.end()) {
      std::ostringstream msg;
      msg << "instance " << owner << " indexed but not in the log";
      return Status::Corruption(msg.str());
    }
    const RecordMeta& disk = it->second.meta;
    if (disk.seq != e.meta.seq ||
        disk.payload_bytes != e.meta.payload_bytes ||
        disk.holder != e.meta.holder) {
      std::ostringstream msg;
      msg << "instance " << owner << " index meta disagrees with log "
          << "(index seq " << e.meta.seq << ", log seq " << disk.seq << ")";
      return Status::Corruption(msg.str());
    }
  }
  for (const auto& [owner, e] : tombstones_) {
    if (replay.tombstones.count(owner) == 0) {
      std::ostringstream msg;
      msg << "instance " << owner << " tombstoned in memory but not in "
          << "the log";
      return Status::Corruption(msg.str());
    }
  }
  if (replay.tombstones.size() != tombstones_.size()) {
    return Status::Corruption("log replays tombstones the index misses");
  }
  return Status::OK();
}

size_t CheckpointLog::segment_count() const {
  return segments_.size();
}

uint64_t CheckpointLog::total_bytes() const {
  uint64_t total = 0;
  for (const auto& [id, seg] : segments_) total += seg.bytes;
  return total;
}

uint64_t CheckpointLog::live_bytes() const {
  uint64_t live = 0;
  for (const auto& [id, seg] : segments_) live += seg.live;
  return live;
}

}  // namespace seep::store
