// Micro-benchmark for the durable checkpoint store (src/store/): append
// throughput across payload sizes, per-append latency under each fsync
// policy, compaction write amplification on an overwrite-heavy history,
// and recovery-scan time as the log grows. Results go to stdout and
// BENCH_durable_store.json.
//
// Usage: bench_durable_store [output.json]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "serde/frame.h"
#include "store/checkpoint_log.h"

namespace seep::bench {
namespace {

using store::CheckpointLog;
using store::CheckpointLogConfig;
using store::FsyncPolicy;
using store::RecordMeta;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::filesystem::path FreshDir(const std::string& name) {
  const auto dir = std::filesystem::current_path() /
                   ("bench_durable_store_tmp-" + name);
  std::filesystem::remove_all(dir);
  return dir;
}

CheckpointLogConfig BaseConfig(const std::filesystem::path& dir) {
  CheckpointLogConfig config;
  config.directory = dir.string();
  config.fsync = FsyncPolicy::kNever;
  return config;
}

std::unique_ptr<CheckpointLog> MustOpen(CheckpointLogConfig config) {
  auto log = CheckpointLog::Open(std::move(config));
  SEEP_CHECK(log.ok());
  return std::move(log).value();
}

/// A deterministic framed checkpoint payload, as a checkpoint frame reaches
/// the log: [length | crc32c | bytes].
std::vector<uint8_t> FramedPayload(uint64_t salt, size_t inner_size) {
  std::vector<uint8_t> inner(inner_size);
  for (size_t i = 0; i < inner_size; ++i) {
    inner[i] = static_cast<uint8_t>(salt * 31 + i * 7);
  }
  return serde::FramePayload(inner);
}

RecordMeta MetaFor(InstanceId owner, uint64_t seq) {
  RecordMeta meta;
  meta.owner = owner;
  meta.owner_op = 7;
  meta.holder = owner + 100;
  meta.seq = seq;
  return meta;
}

double Percentile(std::vector<double>* samples, double pct) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  const size_t i = static_cast<size_t>(
      pct / 100.0 * static_cast<double>(samples->size() - 1));
  return (*samples)[i];
}

struct AppendRow {
  size_t payload_bytes = 0;
  double appends_per_sec = 0;
  double mb_per_sec = 0;
};

AppendRow BenchAppendThroughput(size_t inner_size, size_t appends) {
  const auto dir = FreshDir("append-" + std::to_string(inner_size));
  auto log = MustOpen(BaseConfig(dir));
  const auto payload = FramedPayload(1, inner_size);
  const auto start = Clock::now();
  for (size_t i = 0; i < appends; ++i) {
    const auto meta = MetaFor(static_cast<InstanceId>(1 + i % 64), 1 + i / 64);
    SEEP_CHECK(log->Append(meta, payload.data(), payload.size()).ok());
  }
  SEEP_CHECK(log->Flush().ok());
  const double seconds = SecondsSince(start);
  AppendRow row;
  row.payload_bytes = inner_size;
  row.appends_per_sec = static_cast<double>(appends) / seconds;
  row.mb_per_sec = static_cast<double>(appends * payload.size()) /
                   (seconds * 1024 * 1024);
  log.reset();
  std::filesystem::remove_all(dir);
  return row;
}

struct FsyncRow {
  const char* policy = "";
  double append_p50_us = 0;
  double append_p99_us = 0;
  uint64_t fsyncs = 0;
};

FsyncRow BenchFsyncPolicy(FsyncPolicy policy, const char* name,
                          size_t appends) {
  const auto dir = FreshDir(std::string("fsync-") + name);
  CheckpointLogConfig config = BaseConfig(dir);
  config.fsync = policy;
  config.fsync_interval_ms = 10;
  auto log = MustOpen(config);
  const size_t inner_size = 16 * 1024;
  const auto payload = FramedPayload(2, inner_size);
  std::vector<double> micros;
  micros.reserve(appends);
  for (size_t i = 0; i < appends; ++i) {
    const auto meta = MetaFor(static_cast<InstanceId>(1 + i % 64), 1 + i / 64);
    const auto start = Clock::now();
    SEEP_CHECK(log->Append(meta, payload.data(), payload.size()).ok());
    micros.push_back(SecondsSince(start) * 1e6);
  }
  FsyncRow row;
  row.policy = name;
  row.append_p50_us = Percentile(&micros, 50);
  row.append_p99_us = Percentile(&micros, 99);
  row.fsyncs = log->metrics().fsyncs.load();
  log.reset();
  std::filesystem::remove_all(dir);
  return row;
}

struct CompactRow {
  uint64_t overwrites_per_owner = 0;
  double write_amplification = 0;
  uint64_t bytes_before = 0;
  uint64_t bytes_after = 0;
  double compact_seconds = 0;
};

CompactRow BenchCompaction(uint64_t rounds) {
  const auto dir = FreshDir("compact-" + std::to_string(rounds));
  CheckpointLogConfig config = BaseConfig(dir);
  config.segment_bytes = 256 * 1024;  // seal often so compaction has work
  auto log = MustOpen(config);
  const size_t inner_size = 8 * 1024;
  const auto payload = FramedPayload(3, inner_size);
  constexpr InstanceId kOwners = 8;
  for (uint64_t seq = 1; seq <= rounds; ++seq) {
    for (InstanceId owner = 1; owner <= kOwners; ++owner) {
      const auto meta = MetaFor(owner, seq);
      SEEP_CHECK(log->Append(meta, payload.data(), payload.size()).ok());
    }
  }
  CompactRow row;
  row.overwrites_per_owner = rounds;
  row.bytes_before = log->total_bytes();
  const auto start = Clock::now();
  SEEP_CHECK(log->CompactNow().ok());
  row.compact_seconds = SecondsSince(start);
  row.bytes_after = log->total_bytes();
  const uint64_t out = log->metrics().compaction_bytes_out.load();
  const uint64_t live = log->live_bytes();
  row.write_amplification =
      live > 0 ? static_cast<double>(out) / static_cast<double>(live) : 0;
  log.reset();
  std::filesystem::remove_all(dir);
  return row;
}

struct ScanRow {
  uint64_t records = 0;
  uint64_t log_bytes = 0;
  double scan_ms = 0;
};

ScanRow BenchRecoveryScan(uint64_t records) {
  const auto dir = FreshDir("scan-" + std::to_string(records));
  const size_t inner_size = 4 * 1024;
  const auto payload = FramedPayload(4, inner_size);
  // Compaction would drop superseded records and shrink the log under the
  // scan; push its threshold out of reach so log size is the variable.
  CheckpointLogConfig config = BaseConfig(dir);
  config.compact_min_bytes = 1ull << 40;
  {
    auto log = MustOpen(config);
    for (uint64_t i = 0; i < records; ++i) {
      const auto meta =
          MetaFor(static_cast<InstanceId>(1 + i % 512), 1 + i / 512);
      SEEP_CHECK(log->Append(meta, payload.data(), payload.size()).ok());
    }
    SEEP_CHECK(log->Flush().ok());
  }
  auto reopened = MustOpen(config);
  ScanRow row;
  row.records = records;
  row.log_bytes = reopened->total_bytes();
  row.scan_ms = static_cast<double>(
                    reopened->metrics().recovery_scan_nanos.load()) /
                1e6;
  SEEP_CHECK(reopened->recovery_info().records_scanned == records);
  reopened.reset();
  std::filesystem::remove_all(dir);
  return row;
}

int Main(int argc, char** argv) {
  const char* out = argc > 1 ? argv[1] : "BENCH_durable_store.json";
  FILE* f = std::fopen(out, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out);
    return 1;
  }

  std::printf("==== Durable checkpoint store ====\n");
  std::printf("-- append throughput (fsync=never) --\n");
  std::printf("%12s %14s %10s\n", "payload(B)", "appends/s", "MB/s");
  std::vector<AppendRow> append_rows;
  for (size_t size : std::vector<size_t>{1024, 16 * 1024, 256 * 1024}) {
    const size_t appends = size >= 256 * 1024 ? 512 : 4096;
    const AppendRow r = BenchAppendThroughput(size, appends);
    std::printf("%12zu %14.0f %10.1f\n", r.payload_bytes, r.appends_per_sec,
                r.mb_per_sec);
    append_rows.push_back(r);
  }

  std::printf("-- append latency by fsync policy (16 KiB payload) --\n");
  std::printf("%12s %12s %12s %8s\n", "policy", "p50(us)", "p99(us)",
              "fsyncs");
  std::vector<FsyncRow> fsync_rows;
  const std::vector<std::pair<FsyncPolicy, const char*>> policies = {
      {FsyncPolicy::kNever, "never"},
      {FsyncPolicy::kIntervalMs, "interval"},
      {FsyncPolicy::kAlways, "always"},
  };
  for (const auto& [policy, name] : policies) {
    const FsyncRow r = BenchFsyncPolicy(policy, name, 1024);
    std::printf("%12s %12.1f %12.1f %8llu\n", r.policy, r.append_p50_us,
                r.append_p99_us, static_cast<unsigned long long>(r.fsyncs));
    fsync_rows.push_back(r);
  }

  std::printf("-- compaction write amplification (8 owners, 8 KiB) --\n");
  std::printf("%12s %10s %12s %12s %12s\n", "overwrites", "amp",
              "before(KB)", "after(KB)", "compact(ms)");
  std::vector<CompactRow> compact_rows;
  for (uint64_t rounds : std::vector<uint64_t>{16, 64, 256}) {
    const CompactRow r = BenchCompaction(rounds);
    std::printf("%12llu %10.2f %12llu %12llu %12.2f\n",
                static_cast<unsigned long long>(r.overwrites_per_owner),
                r.write_amplification,
                static_cast<unsigned long long>(r.bytes_before / 1024),
                static_cast<unsigned long long>(r.bytes_after / 1024),
                r.compact_seconds * 1e3);
    compact_rows.push_back(r);
  }

  std::printf("-- recovery scan time vs log size (4 KiB records) --\n");
  std::printf("%12s %12s %12s\n", "records", "log(MB)", "scan(ms)");
  std::vector<ScanRow> scan_rows;
  for (uint64_t records : std::vector<uint64_t>{1000, 10000, 40000}) {
    const ScanRow r = BenchRecoveryScan(records);
    std::printf("%12llu %12.1f %12.2f\n",
                static_cast<unsigned long long>(r.records),
                static_cast<double>(r.log_bytes) / (1024 * 1024), r.scan_ms);
    scan_rows.push_back(r);
  }

  std::fprintf(f, "{\n  \"bench\": \"durable_store\",\n");
  std::fprintf(f, "  \"append_throughput\": [\n");
  for (size_t i = 0; i < append_rows.size(); ++i) {
    const AppendRow& r = append_rows[i];
    std::fprintf(f,
                 "    {\"payload_bytes\": %zu, \"appends_per_sec\": %.0f, "
                 "\"mb_per_sec\": %.1f}%s\n",
                 r.payload_bytes, r.appends_per_sec, r.mb_per_sec,
                 i + 1 < append_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"fsync_latency\": [\n");
  for (size_t i = 0; i < fsync_rows.size(); ++i) {
    const FsyncRow& r = fsync_rows[i];
    std::fprintf(f,
                 "    {\"policy\": \"%s\", \"append_p50_us\": %.1f, "
                 "\"append_p99_us\": %.1f, \"fsyncs\": %llu}%s\n",
                 r.policy, r.append_p50_us, r.append_p99_us,
                 static_cast<unsigned long long>(r.fsyncs),
                 i + 1 < fsync_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"compaction\": [\n");
  for (size_t i = 0; i < compact_rows.size(); ++i) {
    const CompactRow& r = compact_rows[i];
    std::fprintf(f,
                 "    {\"overwrites_per_owner\": %llu, "
                 "\"write_amplification\": %.2f, \"bytes_before\": %llu, "
                 "\"bytes_after\": %llu, \"compact_ms\": %.2f}%s\n",
                 static_cast<unsigned long long>(r.overwrites_per_owner),
                 r.write_amplification,
                 static_cast<unsigned long long>(r.bytes_before),
                 static_cast<unsigned long long>(r.bytes_after),
                 r.compact_seconds * 1e3,
                 i + 1 < compact_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"recovery_scan\": [\n");
  for (size_t i = 0; i < scan_rows.size(); ++i) {
    const ScanRow& r = scan_rows[i];
    std::fprintf(f,
                 "    {\"records\": %llu, \"log_bytes\": %llu, "
                 "\"scan_ms\": %.2f}%s\n",
                 static_cast<unsigned long long>(r.records),
                 static_cast<unsigned long long>(r.log_bytes), r.scan_ms,
                 i + 1 < scan_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out);
  return 0;
}

}  // namespace
}  // namespace seep::bench

int main(int argc, char** argv) { return seep::bench::Main(argc, argv); }
