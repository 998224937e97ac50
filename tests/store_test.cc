// Unit tests for the durable checkpoint log (src/store/): append/read
// roundtrips, tombstone terminality, reopen recovery, segment roll +
// inline compaction (and a compaction that fails under an append), fsync
// policies, the record meta decoder's truncation and bit-flip sweeps, the
// check that neither the log nor a kDisk cluster starts a thread — and the
// torn-write sweeps: one truncates and bit-flips the segment file at every
// frame boundary and checks that the recovery scan never crashes, never
// resurrects a superseded or tombstoned record, and reports exactly the
// surviving prefix; the other scans every prefix and every single-bit flip
// of the segment.

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serde/encoder.h"
#include "serde/frame.h"
#include "sps/sps.h"
#include "store/checkpoint_log.h"
#include "store/log_format.h"
#include "store/segment.h"
#include "workloads/wordcount/wordcount.h"

namespace seep::store {
namespace {

std::string FreshDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::current_path() / "store_test_tmp" / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

CheckpointLogConfig TestConfig(const std::string& dir) {
  CheckpointLogConfig config;
  config.directory = dir;
  config.fsync = FsyncPolicy::kNever;  // tests exercise scans, not platters
  return config;
}

std::unique_ptr<CheckpointLog> MustOpen(const CheckpointLogConfig& config) {
  auto log = CheckpointLog::Open(config);
  SEEP_CHECK(log.ok());
  return std::move(log).value();
}

/// A deterministic framed payload for (owner, seq): what the checkpoint
/// pipeline would hand over, minus the actual checkpoint encoding.
std::vector<uint8_t> FramedPayload(InstanceId owner, uint64_t seq,
                                   size_t size) {
  std::vector<uint8_t> inner(size);
  for (size_t i = 0; i < size; ++i) {
    inner[i] = static_cast<uint8_t>(owner * 37 + seq * 11 + i);
  }
  return serde::FramePayload(inner);
}

Status Put(CheckpointLog* log, InstanceId owner, uint64_t seq,
           size_t size = 64) {
  RecordMeta meta;
  meta.owner = owner;
  meta.owner_op = 7;
  meta.holder = 100 + owner;
  meta.seq = seq;
  const std::vector<uint8_t> framed = FramedPayload(owner, seq, size);
  return log->Append(meta, framed.data(), framed.size());
}

TEST(CheckpointLogTest, AppendFindReadRoundtrip) {
  auto log = MustOpen(TestConfig(FreshDir("roundtrip")));
  ASSERT_TRUE(Put(log.get(), 1, 5).ok());
  ASSERT_TRUE(Put(log.get(), 2, 9, 300).ok());

  ASSERT_TRUE(log->Has(1));
  const auto meta = log->Find(1);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->seq, 5u);
  EXPECT_EQ(meta->holder, 101u);
  EXPECT_EQ(meta->owner_op, 7u);

  auto payload = log->ReadPayload(2);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload.value(), FramedPayload(2, 9, 300));
  EXPECT_TRUE(log->ReadPayload(3).status().IsNotFound());
  EXPECT_TRUE(log->VerifyIndex().ok());
  EXPECT_EQ(log->metrics().appends.load(), 2u);
}

TEST(CheckpointLogTest, LatestSeqWinsAndSpotCheckPasses) {
  auto log = MustOpen(TestConfig(FreshDir("supersede")));
  ASSERT_TRUE(Put(log.get(), 1, 1).ok());
  ASSERT_TRUE(Put(log.get(), 1, 2, 96).ok());
  const auto meta = log->Find(1);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->seq, 2u);
  EXPECT_EQ(log->ReadPayload(1).value(), FramedPayload(1, 2, 96));
  EXPECT_TRUE(log->SpotCheck(1).ok());
  EXPECT_EQ(log->LiveRecords().size(), 1u);
}

TEST(CheckpointLogTest, TombstoneIsTerminal) {
  auto log = MustOpen(TestConfig(FreshDir("tombstone")));
  ASSERT_TRUE(Put(log.get(), 1, 1).ok());
  ASSERT_TRUE(log->AppendTombstone(1).ok());
  EXPECT_FALSE(log->Has(1));
  EXPECT_TRUE(log->ReadPayload(1).status().IsNotFound());
  // Idempotent, and appends after the tombstone are refused: instance ids
  // are never reused, so a late-arriving checkpoint must not resurrect.
  EXPECT_TRUE(log->AppendTombstone(1).ok());
  EXPECT_EQ(Put(log.get(), 1, 2).code(),
            StatusCode::kFailedPrecondition);
}

TEST(CheckpointLogTest, RejectsMalformedAppends) {
  CheckpointLogConfig config = TestConfig(FreshDir("malformed"));
  config.max_payload = 1024;
  auto log = MustOpen(config);
  RecordMeta meta;
  meta.owner = 1;
  meta.seq = 1;
  EXPECT_TRUE(log->Append(meta, nullptr, 0).IsInvalidArgument());
  const std::vector<uint8_t> big(4096);
  EXPECT_TRUE(
      log->Append(meta, big.data(), big.size()).IsInvalidArgument());
}

TEST(CheckpointLogTest, ReopenRebuildsIndex) {
  const std::string dir = FreshDir("reopen");
  {
    auto log = MustOpen(TestConfig(dir));
    ASSERT_TRUE(Put(log.get(), 1, 1).ok());
    ASSERT_TRUE(Put(log.get(), 1, 2, 128).ok());
    ASSERT_TRUE(Put(log.get(), 2, 7).ok());
    ASSERT_TRUE(Put(log.get(), 3, 1).ok());
    ASSERT_TRUE(log->AppendTombstone(3).ok());
  }
  auto log = MustOpen(TestConfig(dir));
  const RecoveryInfo& info = log->recovery_info();
  EXPECT_FALSE(info.torn);
  EXPECT_EQ(info.records_scanned, 5u);
  EXPECT_EQ(info.live_records, 2u);
  EXPECT_EQ(info.torn_bytes, 0u);
  EXPECT_GT(log->metrics().recovery_scan_nanos.load(), 0u);

  EXPECT_EQ(log->Find(1)->seq, 2u);
  EXPECT_EQ(log->ReadPayload(1).value(), FramedPayload(1, 2, 128));
  EXPECT_EQ(log->Find(2)->seq, 7u);
  EXPECT_FALSE(log->Has(3));
  // Still terminal after reopen.
  EXPECT_EQ(Put(log.get(), 3, 2).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(log->VerifyIndex().ok());
}

TEST(CheckpointLogTest, SegmentRollAndCompaction) {
  CheckpointLogConfig config = TestConfig(FreshDir("compact"));
  config.segment_bytes = 512;  // force frequent rolls
  // High threshold: nothing compacts until the explicit CompactNow, so the
  // sealed-segment pileup is observable first.
  config.compact_min_bytes = 1ull << 20;
  auto log = MustOpen(config);
  // Repeatedly supersede two owners so sealed segments are mostly dead.
  for (uint64_t seq = 1; seq <= 40; ++seq) {
    ASSERT_TRUE(Put(log.get(), 1, seq, 100).ok());
    ASSERT_TRUE(Put(log.get(), 2, seq, 100).ok());
  }
  ASSERT_TRUE(Put(log.get(), 3, 1).ok());
  ASSERT_TRUE(log->AppendTombstone(3).ok());
  EXPECT_GT(log->segment_count(), 2u);

  const uint64_t before = log->total_bytes();
  ASSERT_TRUE(log->CompactNow().ok());
  EXPECT_LT(log->total_bytes(), before);
  EXPECT_GT(log->metrics().compactions.load(), 0u);
  EXPECT_GT(log->metrics().compaction_bytes_in.load(),
            log->metrics().compaction_bytes_out.load());

  // Live data and the tombstone survive the rewrite, and the on-disk state
  // still replays to exactly the in-memory index.
  EXPECT_EQ(log->Find(1)->seq, 40u);
  EXPECT_EQ(log->ReadPayload(2).value(), FramedPayload(2, 40, 100));
  EXPECT_FALSE(log->Has(3));
  EXPECT_TRUE(log->VerifyIndex().ok());
  EXPECT_TRUE(log->SpotCheck(1).ok());
  EXPECT_TRUE(log->last_compaction_error().ok());
}

TEST(CheckpointLogTest, CompactionSurvivesReopen) {
  CheckpointLogConfig config = TestConfig(FreshDir("compact_reopen"));
  config.segment_bytes = 512;
  config.compact_min_bytes = 1;
  config.compact_min_dead_ratio = 0.1;
  {
    auto log = MustOpen(config);
    for (uint64_t seq = 1; seq <= 20; ++seq) {
      ASSERT_TRUE(Put(log.get(), 1, seq, 100).ok());
    }
    ASSERT_TRUE(Put(log.get(), 2, 3).ok());
    ASSERT_TRUE(log->AppendTombstone(2).ok());
    ASSERT_TRUE(log->CompactNow().ok());
  }
  auto log = MustOpen(config);
  EXPECT_EQ(log->Find(1)->seq, 20u);
  EXPECT_EQ(log->ReadPayload(1).value(), FramedPayload(1, 20, 100));
  EXPECT_FALSE(log->Has(2));
  EXPECT_EQ(Put(log.get(), 2, 9).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(log->VerifyIndex().ok());
}

/// Small segments, and thresholds that one superseded record in a sealed
/// segment meets, so appends compact as soon as they can.
CheckpointLogConfig EagerCompactionConfig(const std::string& name) {
  CheckpointLogConfig config = TestConfig(FreshDir(name));
  config.segment_bytes = 512;
  config.compact_min_bytes = 1;
  config.compact_min_dead_ratio = 0.1;
  return config;
}

TEST(CheckpointLogTest, AppendsCompactInline) {
  auto log = MustOpen(EagerCompactionConfig("inline_compact"));
  for (uint64_t seq = 1; seq <= 60; ++seq) {
    ASSERT_TRUE(Put(log.get(), 1, seq, 100).ok());
    // A roll seals a segment of superseded records, and the same append
    // compacts it away before it returns.
    EXPECT_EQ(log->segment_count(), 1u) << "after seq " << seq;
  }
  EXPECT_GT(log->metrics().compactions.load(), 0u);
  EXPECT_EQ(log->Find(1)->seq, 60u);
  EXPECT_EQ(log->ReadPayload(1).value(), FramedPayload(1, 60, 100));
  EXPECT_TRUE(log->last_compaction_error().ok());
  EXPECT_TRUE(log->VerifyIndex().ok());
}

/// The id the log gives its next segment: one past the highest on disk.
uint32_t NextSegmentId(const std::string& dir) {
  uint32_t last = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    unsigned id = 0;
    if (std::sscanf(entry.path().filename().c_str(), "seg-%8u.seeplog",
                    &id) == 1) {
      last = std::max<uint32_t>(last, id);
    }
  }
  return last + 1;
}

TEST(CheckpointLogTest, FailedInlineCompactionKeepsTheAppend) {
  const CheckpointLogConfig config = EagerCompactionConfig("compact_fails");
  auto log = MustOpen(config);
  // Distinct owners: the first segment seals with nothing dead in it.
  InstanceId owner = 1;
  while (log->segment_count() < 2) {
    ASSERT_TRUE(Put(log.get(), owner, 1).ok());
    ++owner;
  }
  ASSERT_EQ(log->metrics().compactions.load(), 0u);
  // A directory where the compaction's output segment goes makes its open
  // fail with EISDIR, root or not.
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%08u.seeplog",
                NextSegmentId(config.directory));
  ASSERT_TRUE(std::filesystem::create_directory(
      std::filesystem::path(config.directory) / name));

  // Superseding owner 1 (in the sealed segment) meets both thresholds
  // without rolling the active segment, so this append compacts inline.
  ASSERT_TRUE(Put(log.get(), 1, 2).ok());
  EXPECT_EQ(log->segment_count(), 2u);
  EXPECT_EQ(log->Find(1)->seq, 2u);
  EXPECT_EQ(log->ReadPayload(1).value(), FramedPayload(1, 2, 64));
  EXPECT_FALSE(log->last_compaction_error().ok());
  EXPECT_EQ(log->metrics().compactions.load(), 0u);
  EXPECT_TRUE(log->VerifyIndex().ok());
  for (InstanceId o = 2; o < owner; ++o) {
    EXPECT_EQ(log->ReadPayload(o).value(), FramedPayload(o, 1, 64));
  }

  // The next append past the thresholds retries the pass under a fresh id.
  ASSERT_TRUE(Put(log.get(), 2, 2).ok());
  EXPECT_TRUE(log->last_compaction_error().ok());
  EXPECT_EQ(log->metrics().compactions.load(), 1u);
  EXPECT_EQ(log->Find(2)->seq, 2u);
  EXPECT_TRUE(log->VerifyIndex().ok());
}

/// Threads of this process, sanitizer runtimes' own included.
size_t ThreadCount() {
  return static_cast<size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                    std::filesystem::directory_iterator()));
}

TEST(SingleThreadTest, NeitherTheLogNorADiskClusterStartsAThread) {
  const size_t threads = ThreadCount();
  {
    auto log = MustOpen(EagerCompactionConfig("single_thread"));
    for (uint64_t seq = 1; seq <= 20; ++seq) {
      ASSERT_TRUE(Put(log.get(), 1, seq, 100).ok());
    }
    ASSERT_GT(log->metrics().compactions.load(), 0u);
    EXPECT_EQ(ThreadCount(), threads) << "after compacting appends";
  }

  workloads::wordcount::WordCountConfig wc;
  wc.rate_tuples_per_sec = 100;
  wc.vocabulary = 100;
  sps::SpsConfig config;
  config.cluster.backup_durability = runtime::BackupDurability::kDisk;
  config.scaling.enabled = false;
  auto query = workloads::wordcount::BuildWordCountQuery(wc);
  sps::Sps sps(std::move(query.graph), config);
  ASSERT_TRUE(sps.Deploy().ok());
  sps.RunFor(12);
  const CheckpointLog* log = sps.cluster().durable_log();
  ASSERT_NE(log, nullptr);
  ASSERT_GT(log->metrics().appends.load(), 0u);
  EXPECT_EQ(ThreadCount(), threads) << "during a kDisk cluster run";
}

TEST(CheckpointLogTest, FsyncPolicies) {
  {
    CheckpointLogConfig config = TestConfig(FreshDir("fsync_always"));
    config.fsync = FsyncPolicy::kAlways;
    auto log = MustOpen(config);
    ASSERT_TRUE(Put(log.get(), 1, 1).ok());
    ASSERT_TRUE(Put(log.get(), 1, 2).ok());
    EXPECT_GE(log->metrics().fsyncs.load(), 2u);
    EXPECT_GT(log->metrics().fsync_nanos_max.load(), 0u);
  }
  {
    auto log = MustOpen(TestConfig(FreshDir("fsync_never")));
    ASSERT_TRUE(Put(log.get(), 1, 1).ok());
    const uint64_t before = log->metrics().fsyncs.load();
    ASSERT_TRUE(log->Flush().ok());  // explicit Flush still syncs
    EXPECT_EQ(log->metrics().fsyncs.load(), before + 1);
  }
}

// ------------------------------------------------------------------------
// Record meta decoder sweeps.

/// A checkpoint meta with every field set, unframed: the bytes
/// DecodeRecordMeta sees.
std::vector<uint8_t> SweepMetaBytes() {
  RecordMeta meta;
  meta.owner = 4242;
  meta.owner_op = 7;
  meta.holder = 99;
  meta.seq = 1u << 20;
  meta.payload_bytes = 300;
  const std::vector<uint8_t> framed = EncodeRecordHeader(meta);
  return std::vector<uint8_t>(framed.begin() + serde::kFrameHeaderBytes,
                              framed.end());
}

TEST(RecordMetaSweepTest, EveryStrictPrefixIsCorruption) {
  const std::vector<uint8_t> bytes = SweepMetaBytes();
  ASSERT_TRUE(DecodeRecordMeta(bytes.data(), bytes.size()).ok());
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto back = DecodeRecordMeta(bytes.data(), len);
    ASSERT_FALSE(back.ok()) << "prefix of " << len << " bytes accepted";
    EXPECT_TRUE(back.status().IsCorruption());
  }
}

TEST(RecordMetaSweepTest, EverySingleBitFlipDecodesOrIsCorruption) {
  const std::vector<uint8_t> bytes = SweepMetaBytes();
  size_t rejected = 0;
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::vector<uint8_t> damaged = bytes;
    damaged[bit / 8] ^= uint8_t(1u << (bit % 8));
    auto back = DecodeRecordMeta(damaged.data(), damaged.size());
    if (!back.ok()) {
      EXPECT_TRUE(back.status().IsCorruption());
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

// ------------------------------------------------------------------------
// Torn-write sweep (the crash-consistency satellite).

/// What must survive a crash that leaves only the first `n` records intact:
/// per-owner latest seq, with tombstones terminal.
struct Expected {
  std::map<InstanceId, uint64_t> live;  // owner -> winning seq
  std::set<InstanceId> dead;
};

Expected ReplayPrefix(const std::vector<ScannedRecord>& records, size_t n) {
  Expected e;
  for (size_t i = 0; i < n; ++i) {
    const RecordMeta& m = records[i].meta;
    if (m.type == RecordType::kTombstone) {
      e.live.erase(m.owner);
      e.dead.insert(m.owner);
    } else if (e.dead.count(m.owner) == 0) {
      auto it = e.live.find(m.owner);
      if (it == e.live.end() || m.seq >= it->second) e.live[m.owner] = m.seq;
    }
  }
  return e;
}

void ExpectStateMatches(CheckpointLog* log, const Expected& expected,
                        const std::string& what) {
  const std::vector<RecordMeta> live = log->LiveRecords();
  ASSERT_EQ(live.size(), expected.live.size()) << what;
  for (const RecordMeta& m : live) {
    auto it = expected.live.find(m.owner);
    ASSERT_NE(it, expected.live.end())
        << what << ": unexpected survivor owner " << m.owner;
    EXPECT_EQ(m.seq, it->second) << what << ": owner " << m.owner;
    // The payload must read back and be the exact framed bytes appended
    // for that (owner, seq).
    auto payload = log->ReadPayload(m.owner);
    ASSERT_TRUE(payload.ok()) << what;
    EXPECT_EQ(payload.value(),
              FramedPayload(m.owner, m.seq,
                            m.payload_bytes - serde::kFrameHeaderBytes))
        << what;
  }
  for (InstanceId owner : expected.dead) {
    EXPECT_FALSE(log->Has(owner)) << what << ": resurrected owner " << owner;
  }
  EXPECT_TRUE(log->VerifyIndex().ok()) << what;
}

/// Writes the scripted history (supersedes + a tombstone), closes the log,
/// and returns the single segment file plus its scanned record layout.
struct SweepFixture {
  std::string dir;
  std::string pristine;  // pristine copy of the segment file
  std::string segment;   // path the log will reopen
  std::vector<ScannedRecord> records;
  uint64_t valid_bytes = 0;
};

SweepFixture BuildSweepFixture(const std::string& name) {
  SweepFixture fx;
  fx.dir = FreshDir(name);
  {
    auto log = MustOpen(TestConfig(fx.dir));
    SEEP_CHECK(Put(log.get(), 1, 1, 64).ok());
    SEEP_CHECK(Put(log.get(), 2, 1, 48).ok());
    SEEP_CHECK(Put(log.get(), 1, 2, 80).ok());   // supersedes owner 1 seq 1
    SEEP_CHECK(Put(log.get(), 3, 1, 32).ok());
    SEEP_CHECK(log->AppendTombstone(2).ok());    // owner 2 terminally dead
    SEEP_CHECK(Put(log.get(), 3, 2, 96).ok());   // supersedes owner 3 seq 1
    SEEP_CHECK(Put(log.get(), 4, 1, 56).ok());
  }
  fx.segment = fx.dir + "/seg-00000001.seeplog";
  fx.pristine = fx.dir + "/pristine.bin";
  std::filesystem::copy_file(fx.segment, fx.pristine);

  const int fd = ::open(fx.segment.c_str(), O_RDONLY);
  SEEP_CHECK(fd >= 0);
  struct stat st;
  SEEP_CHECK(::fstat(fd, &st) == 0);
  const SegmentScan scan =
      ScanSegment(fd, static_cast<uint64_t>(st.st_size),
                  serde::kDefaultMaxFramePayload);
  ::close(fd);
  SEEP_CHECK(!scan.torn);
  SEEP_CHECK(scan.records.size() == 7);
  fx.records = scan.records;
  fx.valid_bytes = scan.valid_bytes;
  return fx;
}

void RestorePristine(const SweepFixture& fx) {
  std::filesystem::copy_file(
      fx.pristine, fx.segment,
      std::filesystem::copy_options::overwrite_existing);
}

uint64_t RecordEnd(const SweepFixture& fx, size_t i) {
  return i + 1 < fx.records.size() ? fx.records[i + 1].record_offset
                                   : fx.valid_bytes;
}

TEST(TornWriteSweepTest, TruncationAtEveryBoundaryKeepsExactPrefix) {
  const SweepFixture fx = BuildSweepFixture("sweep_truncate");
  for (size_t i = 0; i < fx.records.size(); ++i) {
    const uint64_t begin = fx.records[i].record_offset;
    const uint64_t payload = fx.records[i].payload_offset;
    const uint64_t end = RecordEnd(fx, i);
    // Clean cut at the boundary, plus torn cuts inside the meta frame,
    // at the payload start, and one byte short of complete. (For a
    // tombstone, payload start == record end — a clean boundary; the
    // expectations below are computed from the cut, not the loop index.)
    const uint64_t cuts[] = {begin, begin + 1, payload, end - 1};
    for (const uint64_t cut : cuts) {
      RestorePristine(fx);
      std::filesystem::resize_file(fx.segment, cut);
      auto log = MustOpen(TestConfig(fx.dir));
      const std::string what =
          "truncate at " + std::to_string(cut) + " (record " +
          std::to_string(i) + ")";
      size_t intact = 0;
      while (intact < fx.records.size() && RecordEnd(fx, intact) <= cut) {
        ++intact;
      }
      const uint64_t boundary = intact < fx.records.size()
                                    ? fx.records[intact].record_offset
                                    : fx.valid_bytes;
      // A cut at a record boundary is a clean shutdown image; any cut
      // inside a record is a torn tail the scan must repair.
      EXPECT_EQ(log->recovery_info().torn, cut != boundary) << what;
      ExpectStateMatches(log.get(), ReplayPrefix(fx.records, intact), what);
      // The log must stay appendable after tail repair.
      EXPECT_TRUE(Put(log.get(), 9, 1).ok()) << what;
    }
  }
}

TEST(TornWriteSweepTest, BitFlipAtEveryBoundaryKeepsExactPrefix) {
  const SweepFixture fx = BuildSweepFixture("sweep_bitflip");
  for (size_t i = 0; i < fx.records.size(); ++i) {
    const uint64_t begin = fx.records[i].record_offset;
    const uint64_t payload = fx.records[i].payload_offset;
    const uint64_t end = RecordEnd(fx, i);
    // Flip a bit in the meta frame header, the meta payload, the payload
    // frame, and the final byte of the record.
    std::vector<uint64_t> flips = {begin, begin + serde::kFrameHeaderBytes,
                                   end - 1};
    if (payload < end) flips.push_back(payload);
    for (const uint64_t flip : flips) {
      RestorePristine(fx);
      {
        std::fstream f(fx.segment,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(static_cast<std::streamoff>(flip));
        char byte = 0;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x40);
        f.seekp(static_cast<std::streamoff>(flip));
        f.write(&byte, 1);
      }
      auto log = MustOpen(TestConfig(fx.dir));
      const std::string what =
          "bit flip at " + std::to_string(flip) + " (record " +
          std::to_string(i) + ")";
      // crc32c catches every single-bit flip, so the scan stops at record
      // i and exactly the prefix survives.
      EXPECT_TRUE(log->recovery_info().torn) << what;
      ExpectStateMatches(log.get(), ReplayPrefix(fx.records, i), what);
      EXPECT_TRUE(Put(log.get(), 9, 1).ok()) << what;
    }
  }
}

TEST(TornWriteSweepTest, BadSegmentHeaderDropsWholeSegment) {
  const SweepFixture fx = BuildSweepFixture("sweep_header");
  RestorePristine(fx);
  {
    std::fstream f(fx.segment,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("XX", 2);  // clobber the magic
  }
  auto log = MustOpen(TestConfig(fx.dir));
  EXPECT_TRUE(log->recovery_info().torn);
  EXPECT_EQ(log->LiveRecords().size(), 0u);
  EXPECT_TRUE(log->VerifyIndex().ok());
  EXPECT_TRUE(Put(log.get(), 9, 1).ok());
}

// The scan of `scan` kept exactly the first `n` of the fixture's records.
void ExpectRecordPrefix(const SegmentScan& scan, const SweepFixture& fx,
                        size_t n, const std::string& what) {
  ASSERT_EQ(scan.records.size(), n) << what;
  for (size_t i = 0; i < n; ++i) {
    const ScannedRecord& got = scan.records[i];
    const ScannedRecord& want = fx.records[i];
    EXPECT_EQ(got.record_offset, want.record_offset) << what;
    EXPECT_EQ(got.payload_offset, want.payload_offset) << what;
    EXPECT_EQ(got.meta.type, want.meta.type) << what;
    EXPECT_EQ(got.meta.owner, want.meta.owner) << what;
    EXPECT_EQ(got.meta.owner_op, want.meta.owner_op) << what;
    EXPECT_EQ(got.meta.holder, want.meta.holder) << what;
    EXPECT_EQ(got.meta.seq, want.meta.seq) << what;
    EXPECT_EQ(got.meta.payload_bytes, want.meta.payload_bytes) << what;
  }
}

// The every-byte sweeps call ScanSegment directly, with the file size as
// the cut, so no case reopens the log.
TEST(SegmentScanSweepTest, EveryStrictPrefixKeepsTheRecordsBeforeTheCut) {
  const SweepFixture fx = BuildSweepFixture("scan_every_prefix");
  ASSERT_EQ(std::filesystem::file_size(fx.pristine), fx.valid_bytes);
  const int fd = ::open(fx.pristine.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  for (uint64_t cut = 0; cut < fx.valid_bytes && !HasFailure(); ++cut) {
    const SegmentScan scan =
        ScanSegment(fd, cut, serde::kDefaultMaxFramePayload);
    const std::string what = "cut at " + std::to_string(cut);
    size_t whole = 0;
    while (whole < fx.records.size() && RecordEnd(fx, whole) <= cut) ++whole;
    uint64_t valid = 0;
    if (cut >= kSegmentHeaderBytes) {
      valid = whole == 0 ? kSegmentHeaderBytes : RecordEnd(fx, whole - 1);
      EXPECT_EQ(scan.id, 1u) << what;
    }
    ExpectRecordPrefix(scan, fx, whole, what);
    EXPECT_EQ(scan.valid_bytes, valid) << what;
    // A cut on a record boundary, the header's end included, leaves a clean
    // image; anywhere else the tail is torn.
    EXPECT_EQ(scan.torn, cut < kSegmentHeaderBytes || cut != valid) << what;
  }
  ::close(fd);
}

TEST(SegmentScanSweepTest, EverySingleBitFlipStopsAtItsRecord) {
  constexpr uint64_t kMagicBytes = 8;
  const SweepFixture fx = BuildSweepFixture("scan_every_flip");
  const int fd = ::open(fx.segment.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  size_t record = 0;  // the record holding byte `at`
  for (uint64_t at = 0; at < fx.valid_bytes && !HasFailure(); ++at) {
    while (at >= kSegmentHeaderBytes && RecordEnd(fx, record) <= at) {
      ++record;
    }
    uint8_t original = 0;
    ASSERT_EQ(::pread(fd, &original, 1, static_cast<off_t>(at)), 1);
    for (int bit = 0; bit < 8; ++bit) {
      const auto flipped = static_cast<uint8_t>(original ^ (1u << bit));
      ASSERT_EQ(::pwrite(fd, &flipped, 1, static_cast<off_t>(at)), 1);
      const SegmentScan scan =
          ScanSegment(fd, fx.valid_bytes, serde::kDefaultMaxFramePayload);
      const std::string what =
          "bit " + std::to_string(bit) + " of byte " + std::to_string(at);
      if (at < kMagicBytes) {
        // A bad magic: the whole segment is dropped.
        EXPECT_TRUE(scan.torn) << what;
        EXPECT_EQ(scan.valid_bytes, 0u) << what;
        EXPECT_TRUE(scan.records.empty()) << what;
      } else if (at < kSegmentHeaderBytes) {
        // The id field: only the id changes.
        EXPECT_EQ(scan.id, 1u ^ (uint64_t{1} << (8 * (at - kMagicBytes) + bit)))
            << what;
        EXPECT_FALSE(scan.torn) << what;
        EXPECT_EQ(scan.valid_bytes, fx.valid_bytes) << what;
        ExpectRecordPrefix(scan, fx, fx.records.size(), what);
      } else {
        // crc32c catches every single-bit flip: the scan stops at the
        // record that holds it.
        EXPECT_TRUE(scan.torn) << what;
        EXPECT_EQ(scan.valid_bytes, fx.records[record].record_offset) << what;
        ExpectRecordPrefix(scan, fx, record, what);
      }
    }
    ASSERT_EQ(::pwrite(fd, &original, 1, static_cast<off_t>(at)), 1);
  }
  ::close(fd);

  // The log drops a segment whose scanned id differs from its file name's,
  // a flip in the id's upper half included.
  for (const uint64_t at : {kMagicBytes, kSegmentHeaderBytes - 1}) {
    RestorePristine(fx);
    {
      std::fstream f(fx.segment,
                     std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(static_cast<std::streamoff>(at));
      char byte = 0;
      f.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x02);
      f.seekp(static_cast<std::streamoff>(at));
      f.write(&byte, 1);
    }
    auto log = MustOpen(TestConfig(fx.dir));
    const std::string what = "id flip in byte " + std::to_string(at);
    EXPECT_TRUE(log->recovery_info().torn) << what;
    EXPECT_NE(log->recovery_info().torn_detail.find("segment id mismatch"),
              std::string::npos)
        << what;
    EXPECT_EQ(log->LiveRecords().size(), 0u) << what;
  }
}

}  // namespace
}  // namespace seep::store
