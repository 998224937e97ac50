#ifndef SEEP_STORE_STORE_METRICS_H_
#define SEEP_STORE_STORE_METRICS_H_

#include <atomic>
#include <cstdint>

namespace seep::store {

/// Per-operation counters for the durable checkpoint log. The log runs on
/// one thread; the fields are std::atomic only because the benchmark
/// harness (perfbench/perfbench.cc) reads them with `.load()`.
struct StoreMetrics {
  // Append path.
  std::atomic<uint64_t> appends{0};
  std::atomic<uint64_t> append_bytes{0};  // header frame + payload bytes
  std::atomic<uint64_t> tombstones{0};

  // Fsync policy.
  std::atomic<uint64_t> fsyncs{0};
  std::atomic<uint64_t> fsync_nanos_total{0};
  std::atomic<uint64_t> fsync_nanos_max{0};

  // Compaction (write amplification = bytes_written / live bytes carried
  // forward).
  std::atomic<uint64_t> compactions{0};
  std::atomic<uint64_t> compaction_bytes_in{0};   // sealed bytes examined
  std::atomic<uint64_t> compaction_bytes_out{0};  // bytes rewritten

  // Startup recovery scan.
  std::atomic<uint64_t> recovery_scan_nanos{0};
  std::atomic<uint64_t> recovery_records_scanned{0};
  std::atomic<uint64_t> recovery_torn_bytes{0};  // truncated torn tail

  // Read path (disk recovery).
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> read_bytes{0};

  void RecordFsync(uint64_t nanos) {
    fsyncs.fetch_add(1, std::memory_order_relaxed);
    fsync_nanos_total.fetch_add(nanos, std::memory_order_relaxed);
    if (nanos > fsync_nanos_max.load(std::memory_order_relaxed)) {
      fsync_nanos_max.store(nanos, std::memory_order_relaxed);
    }
  }
};

}  // namespace seep::store

#endif  // SEEP_STORE_STORE_METRICS_H_
