#ifndef SEEP_RUNTIME_METRICS_H_
#define SEEP_RUNTIME_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/stats.h"
#include "common/time.h"

namespace seep::runtime {

/// One dynamic scale-out action (paper Fig. 6/8 annotations).
struct ScaleOutEvent {
  SimTime at = 0;
  OperatorId op = 0;
  InstanceId partitioned_instance = kInvalidInstance;
  uint32_t parallelism_before = 0;
  uint32_t parallelism_after = 0;
};

/// One dynamic scale-in action: two adjacent partitions merged into one
/// (paper §3.3's merge primitive), releasing a VM.
struct ScaleInEvent {
  SimTime at = 0;
  OperatorId op = 0;
  InstanceId merged_a = kInvalidInstance;
  InstanceId merged_b = kInvalidInstance;
  InstanceId merged_into = kInvalidInstance;
  uint32_t parallelism_before = 0;
  uint32_t parallelism_after = 0;
};

/// Wall-clock (simulated) extent of one reconfiguration-plan stage.
struct ReconfigStageTiming {
  const char* stage = "";  // StageKindName; static storage
  SimTime started = 0;
  SimTime ended = 0;
};

/// Lifecycle record of one reconfiguration plan (scale out/in, recovery):
/// which stages ran, how long each took, and whether the plan committed or
/// was aborted and compensated.
struct ReconfigPlanEvent {
  uint64_t plan_id = 0;
  OperatorId op = 0;
  const char* label = "";  // plan label; static storage
  bool aborted = false;
  std::string status;
  SimTime started = 0;
  SimTime ended = 0;
  std::vector<ReconfigStageTiming> stages;
};

/// One failure-recovery action (paper §6.2). `caught_up_at` is when the
/// restored instance finished processing all replayed tuples — the paper's
/// "time to recover (until the complete operator state was restored)".
struct RecoveryEvent {
  OperatorId op = 0;
  InstanceId failed_instance = kInvalidInstance;
  SimTime failed_at = 0;
  SimTime detected_at = 0;
  SimTime restored_at = 0;   // state restored onto the replacement(s)
  SimTime caught_up_at = 0;  // replay fence drained; 0 if not yet
  uint32_t parallelism = 1;  // 1 = serial recovery, >1 = parallel recovery

  double RecoverySeconds() const {
    return caught_up_at == 0 ? -1 : SimToSeconds(caught_up_at - failed_at);
  }
};

/// Run-wide observability: everything the paper's figures plot. Owned by the
/// Cluster and written by instances/coordinators; read by benches and tests.
class MetricsRegistry {
 public:
  MetricsRegistry()
      : latency_ms(1 << 20, /*seed=*/7),
        sink_tuples(kMicrosPerSecond),
        source_tuples(kMicrosPerSecond),
        dropped_tuples(kMicrosPerSecond) {}

  /// End-to-end processing latency of result tuples, in milliseconds.
  SampleDistribution latency_ms;
  /// Sparse (time, latency-ms) samples for latency-over-time plots (Fig. 7).
  TimeSeries latency_series_ms;
  /// Result tuples per second at sinks (Fig. 6 "throughput").
  RateCounter sink_tuples;
  /// Tuples actually emitted by sources per second (Fig. 6 "input rate").
  RateCounter source_tuples;
  /// Tuples dropped by admission control under overload (open-loop runs).
  RateCounter dropped_tuples;
  /// VMs hosting operator instances over time (Fig. 6 right axis).
  TimeSeries vms_in_use;

  std::vector<ScaleOutEvent> scale_outs;
  std::vector<ScaleInEvent> scale_ins;
  std::vector<RecoveryEvent> recoveries;
  std::vector<ReconfigPlanEvent> reconfig_plans;

  uint64_t duplicates_dropped = 0;
  uint64_t checkpoints_taken = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t delta_checkpoints_taken = 0;
  uint64_t delta_apply_failures = 0;
  /// Checkpoint stores rejected by the backup store (durable append
  /// failed with no surviving tier) or durable refreshes that left the
  /// log a delta behind. Each one is a checkpoint whose trim acks did
  /// NOT fire — the unchecked-status discipline made these observable.
  uint64_t ckpt_store_failures = 0;
  uint64_t tuples_replayed = 0;
  uint64_t tuples_processed = 0;
  uint64_t source_saturated_ticks = 0;

  // ---------------------------------------------- checkpoint pipeline
  /// Operator pause per checkpoint job (capture only when async), ms.
  SampleDistribution ckpt_pause_ms{1 << 16, /*seed=*/11};
  /// Capture-to-stored latency of the whole pipeline, ms.
  SampleDistribution ckpt_e2e_ms{1 << 16, /*seed=*/13};
  /// Async captures handed to the deferred serialization stage.
  uint64_t async_ckpt_captures = 0;
  /// In-flight async checkpoints aborted (owner died/stopped/suspended).
  uint64_t async_ckpts_aborted = 0;
  /// Serialized checkpoint payload bytes before / after compression.
  uint64_t ckpt_raw_bytes = 0;
  uint64_t ckpt_wire_bytes = 0;
  /// Checkpoint frames dropped on arrival for failing their crc, their
  /// head (codec or raw size), decompression or decode.
  uint64_t ckpt_decode_failures = 0;
  /// Wire messages the TCP pump dropped because their body failed to
  /// decode. The frame already passed the net layer's crc32c, so these
  /// are encode/decode logic divergence, never line noise — silently
  /// swallowing them is how a protocol bug becomes unexplained data
  /// loss (enum-switch-exhaustiveness / unchecked-status discipline).
  uint64_t wire_decode_failures = 0;

  /// Sampling stride for latency_series_ms (1 sample per N sink tuples).
  uint32_t latency_series_stride = 64;
};

}  // namespace seep::runtime

#endif  // SEEP_RUNTIME_METRICS_H_
