#ifndef SEEP_STORE_CHECKPOINT_LOG_H_
#define SEEP_STORE_CHECKPOINT_LOG_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "serde/frame.h"
#include "store/log_format.h"
#include "store/store_metrics.h"

namespace seep::store {

/// When appended records reach the disk platter.
enum class FsyncPolicy : uint8_t {
  kAlways,      // fdatasync after every append
  kIntervalMs,  // fdatasync on the first append after the interval elapses
  kNever,       // the OS page cache decides (plus explicit Flush calls)
};

struct CheckpointLogConfig {
  /// Directory holding the segment files; created if missing.
  std::string directory;
  FsyncPolicy fsync = FsyncPolicy::kIntervalMs;
  uint64_t fsync_interval_ms = 50;
  /// A segment holding at least one record seals once it grows past this.
  uint64_t segment_bytes = 8ull << 20;
  /// The append or tombstone that finds sealed segments holding at least
  /// this many dead bytes AND the dead fraction of sealed bytes at the
  /// ratio runs one compaction pass inline.
  uint64_t compact_min_bytes = 1ull << 20;
  double compact_min_dead_ratio = 0.5;
  /// Ignored: compaction always runs inline. Kept only because the
  /// benchmark harness (perfbench/perfbench.cc) still assigns it.
  bool background_compaction = true;
  /// Ceiling on one record's checkpoint payload, pre-allocation-checked.
  uint64_t max_payload = serde::kDefaultMaxFramePayload;
};

/// What the startup recovery scan found and repaired.
struct RecoveryInfo {
  uint64_t segments_scanned = 0;
  uint64_t records_scanned = 0;  // intact records replayed into the index
  uint64_t live_records = 0;     // owners with a live checkpoint after replay
  uint64_t torn_bytes = 0;       // truncated from torn tails
  bool torn = false;
  std::string torn_detail;
};

/// A segmented, append-only, crc32c-framed checkpoint log with an in-memory
/// index: the durable backend behind the BackupStore seam.
///
/// Records are (meta frame, payload) pairs where the payload is the
/// checkpoint's own [length | crc32c | payload] frame written verbatim — the
/// bytes the chunk reassembler hands over are appended without re-encoding,
/// and ReadPayload returns exactly those bytes for the normal unframe +
/// decompress + decode receive path. A tombstone record terminally deletes
/// its owner (instance ids are never reused). The latest intact checkpoint
/// record per non-tombstoned owner wins, independent of segment order, so
/// compaction can rewrite survivors into fresh segments without ordering
/// constraints.
///
/// Crash consistency: Open scans every segment front to back, verifying
/// both the meta frame and the payload frame crc32c of each record, and
/// truncates a segment at the first bad frame — a torn tail can only drop
/// the newest records, never resurrect superseded ones, because replay
/// consumes only the intact prefix.
///
/// Single-threaded: the appending thread also compacts, inline, so no
/// record can be superseded while a compaction pass runs.
class CheckpointLog {
 public:
  [[nodiscard]] static Result<std::unique_ptr<CheckpointLog>> Open(
      CheckpointLogConfig config);
  ~CheckpointLog();

  CheckpointLog(const CheckpointLog&) = delete;
  CheckpointLog& operator=(const CheckpointLog&) = delete;

  /// Appends a checkpoint record. `meta.payload_bytes` is derived from `n`;
  /// `payload` must be the checkpoint's framed bytes. Fails with
  /// FailedPrecondition for a tombstoned owner. A compaction pass the
  /// append runs inline never fails it: its error goes to
  /// last_compaction_error(), and the next append past the thresholds
  /// retries.
  [[nodiscard]]
  Status Append(RecordMeta meta, const uint8_t* payload, size_t n);

  /// Appends a tombstone, terminally deleting `owner`. Idempotent.
  [[nodiscard]] Status AppendTombstone(InstanceId owner);

  /// Reads back the framed payload of `owner`'s live checkpoint.
  [[nodiscard]]
  Result<std::vector<uint8_t>> ReadPayload(InstanceId owner) const;

  /// Index lookup: the live checkpoint's meta, or nullopt.
  std::optional<RecordMeta> Find(InstanceId owner) const;
  bool Has(InstanceId owner) const;

  /// Metas of every live (non-tombstoned) checkpoint, owner-ordered.
  std::vector<RecordMeta> LiveRecords() const;

  /// Forces an fdatasync of the active segment regardless of policy.
  [[nodiscard]] Status Flush();

  /// The one compaction pass: rewrites the sealed segments' live records
  /// into a fresh segment and unlinks them (no-op when none are sealed).
  /// Appends run it when the thresholds are met; tests and benches also
  /// call it directly. A failed pass keeps the sealed segments as they were.
  [[nodiscard]] Status CompactNow();

  /// Full cross-check: rescans the segment files and verifies the replayed
  /// state matches the in-memory index exactly. Expensive; tests only.
  [[nodiscard]] Status VerifyIndex() const;

  /// Cheap per-operation check (audit level 2): re-reads `owner`'s meta
  /// frame from disk and compares it against the index entry.
  [[nodiscard]] Status SpotCheck(InstanceId owner) const;

  const StoreMetrics& metrics() const { return metrics_; }
  const RecoveryInfo& recovery_info() const { return recovery_info_; }
  const CheckpointLogConfig& config() const { return config_; }

  size_t segment_count() const;
  uint64_t total_bytes() const;
  uint64_t live_bytes() const;
  /// The outcome of the last compaction pass an append or tombstone ran.
  [[nodiscard]] Status last_compaction_error() const {
    return last_compaction_error_;
  }

 private:
  struct IndexEntry {
    RecordMeta meta;
    uint32_t segment = 0;
    uint64_t record_offset = 0;
    uint64_t payload_offset = 0;
    uint64_t record_bytes = 0;  // meta frame + payload
  };
  struct Segment {
    std::string path;
    int fd = -1;
    uint64_t bytes = 0;
    uint64_t live = 0;
    bool sealed = false;
  };

  explicit CheckpointLog(CheckpointLogConfig config);

  [[nodiscard]] Status Recover();
  [[nodiscard]]
  Status AppendRecord(const RecordMeta& meta, const uint8_t* payload,
                      size_t n, IndexEntry* out);
  [[nodiscard]] Status RollSegment();
  [[nodiscard]] Status CreateSegment(uint32_t id);
  [[nodiscard]] Status MaybeFsync(bool force);
  bool CompactionNeeded() const;
  /// Runs CompactNow when CompactionNeeded, recording its outcome.
  void MaybeCompact();

  const CheckpointLogConfig config_;
  mutable StoreMetrics metrics_;
  RecoveryInfo recovery_info_;

  std::map<InstanceId, IndexEntry> index_;
  std::map<InstanceId, IndexEntry> tombstones_;
  std::map<uint32_t, Segment> segments_;
  uint32_t active_id_ = 0;
  uint32_t next_segment_id_ = 1;
  std::chrono::steady_clock::time_point last_fsync_;
  bool dirty_since_fsync_ = false;
  Status last_compaction_error_;
};

}  // namespace seep::store

#endif  // SEEP_STORE_CHECKPOINT_LOG_H_
