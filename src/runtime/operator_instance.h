#ifndef SEEP_RUNTIME_OPERATOR_INSTANCE_H_
#define SEEP_RUNTIME_OPERATOR_INSTANCE_H_

#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "core/operator.h"
#include "core/query_graph.h"
#include "core/state.h"
#include "core/tuple.h"
#include "runtime/checkpoint_plane.h"
#include "runtime/emission_router.h"
#include "runtime/job_scheduler.h"
#include "runtime/trim_tracker.h"

namespace seep::runtime {

class Cluster;

/// A physical partitioned operator (the paper's o^i) running on one
/// simulated VM: the lifecycle glue around four composed components.
/// JobScheduler models the single-server FIFO queue (batches, checkpoints
/// and window timers as jobs with CPU-derived service times); CheckpointPlane
/// owns the full/delta checkpoint schedule and lineage; TrimTracker owns the
/// ack/sent bookkeeping that drives output-buffer trimming; EmissionRouter
/// stamps, buffers, routes and ships emissions. This class keeps identity,
/// liveness, input positions and the replay buffer, and wires the data path
/// through the components; coordination policy lives in control/.
class OperatorInstance : private JobScheduler::Host {
 public:
  struct Params {
    InstanceId id = kInvalidInstance;
    OperatorId op = 0;
    const core::OperatorSpec* spec = nullptr;
    VmId vm = kInvalidVm;
    double vm_capacity = 1.0;
    core::KeyRange range = core::KeyRange::Full();
    core::OriginId origin = core::kInvalidOrigin;
    uint32_t source_index = 0;  // which of N parallel sources this is
    uint32_t source_count = 1;
  };

  OperatorInstance(Cluster* cluster, Params params);
  ~OperatorInstance() override;

  OperatorInstance(const OperatorInstance&) = delete;
  OperatorInstance& operator=(const OperatorInstance&) = delete;

  InstanceId id() const { return p_.id; }
  OperatorId op() const { return p_.op; }
  VmId vm() const { return p_.vm; }
  const core::OperatorSpec& spec() const { return *p_.spec; }
  const core::KeyRange& key_range() const { return p_.range; }
  core::OriginId origin() const { return origin_; }
  bool alive() const override { return alive_; }
  bool stopped() const override { return stopped_; }
  bool idle() const { return scheduler_.idle(); }

  /// The operator implementation, or null for sources/sinks. Components use
  /// this for state capture; it is not a way around the instance's API.
  core::Operator* operator_impl() const { return operator_.get(); }

  // ------------------------------------------------------------- lifecycle

  /// Begins source ticks, window timers and the checkpoint schedule.
  void Start();

  /// Graceful permanent stop (scale-out path, Algorithm 3 line 8): finishes
  /// nothing further; queued batches are discarded (upstream replays them).
  void Stop();

  /// Crash-stop (VM failure): all volatile state is lost.
  void MarkDead(SimTime now);

  /// Time of the crash-stop, or 0 if alive.
  SimTime died_at() const { return died_at_; }

  /// Temporarily halts job starts (Algorithm 3 lines 10/14 stop/start of
  /// upstream operators during routing and buffer repartitioning).
  void Pause();
  void Resume();

  /// Freezes the checkpoint schedule while the scale-out coordinator is
  /// partitioning this instance's backed-up state (see CheckpointPlane).
  void SuspendCheckpoints() { checkpoints_.Suspend(); }
  void ResumeCheckpoints() { checkpoints_.Resume(); }
  bool checkpoints_suspended() const { return checkpoints_.suspended(); }

  // ------------------------------------------------------------- data path

  /// Delivery of a batch from the network (or a fence).
  void OnBatch(core::TupleBatch batch);

  /// Adds a job to this instance's FIFO queue (the checkpoint plane
  /// enqueues checkpoint jobs through this).
  void EnqueueJob(JobScheduler::Job job);

  /// The transport reported outbound queue pressure on this instance's
  /// sends: throttle the job scheduler briefly so the sender stops
  /// outrunning its links (TCP backend; the sim backend never signals).
  void OnSendPressure();

  // ------------------------------------------------------ state management

  /// checkpoint-state(o) → (θo, τo, βo): synchronous snapshot, used by the
  /// checkpoint job and by quiesced scale-in.
  core::StateCheckpoint MakeCheckpoint() {
    return checkpoints_.MakeCheckpoint();
  }

  /// Incremental variant: only the state entries changed since the previous
  /// checkpoint, new buffer tuples, and trim positions for the mirrored
  /// buffer. Requires the operator's SupportsIncrementalState().
  core::StateCheckpoint MakeDeltaCheckpoint() {
    return checkpoints_.MakeDeltaCheckpoint();
  }

  /// Whether the next periodic checkpoint may be shipped as a delta.
  bool CanCheckpointIncrementally() const {
    return checkpoints_.CanCheckpointIncrementally();
  }

  /// restore-state(o, θ, τ, β): installs a checkpoint. With `inherit_origin`
  /// the instance adopts the checkpoint's origin and output clock so that
  /// downstream duplicate filtering recognises its re-emissions (serial
  /// recovery); otherwise it keeps its own fresh origin (scale-out
  /// partitions).
  void Restore(const core::StateCheckpoint& checkpoint, bool inherit_origin);

  /// Catch-up suppression: while re-processing replayed tuples with
  /// timestamps at or below these per-origin positions, state is updated but
  /// emissions are dropped — the stopped parent already delivered the
  /// corresponding outputs downstream.
  void SetSuppressUntil(core::InputPositions positions) {
    router_.SetSuppressUntil(std::move(positions));
  }

  /// Clears processing state, positions, buffers, the job queue and the
  /// output clock, and adopts a fresh origin. The source-replay baseline
  /// resets every operator this way and recomputes from the sources'
  /// buffered history.
  void ResetEmpty(core::OriginId fresh_origin);

  const core::InputPositions& positions() const { return positions_; }
  int64_t out_clock() const { return router_.out_clock(); }
  core::BufferState& buffer_state() { return buffer_; }
  const core::BufferState& buffer_state() const { return buffer_; }

  // --------------------------------------------------------------- replay

  /// replay-buffer-state(u, o): re-sends buffered tuples for downstream
  /// logical operator `down` with timestamp > from_ts, routed by the current
  /// routing state but restricted to `targets`. If fence_id != 0, a fence
  /// follows the replayed tuples to each target on the same FIFO link.
  void ReplayBuffer(OperatorId down, int64_t from_ts,
                    const std::vector<InstanceId>& targets, uint64_t fence_id);

  /// Downstream instance `down_instance` checkpointed through `position` of
  /// this instance's origin; trim the output buffer when all current
  /// partitions of `down_op` have acknowledged (Algorithm 1 line 4).
  void OnTrimAck(OperatorId down_op, InstanceId down_instance,
                 int64_t position) {
    trims_.OnTrimAck(down_op, down_instance, position);
  }

  /// Drops ack entries for instances no longer routed (after scale out /
  /// recovery replaced partitions).
  void PruneAcks(OperatorId down_op) { trims_.PruneAcks(down_op); }

  /// Seeds the ack position of a freshly restored downstream instance from
  /// its restored checkpoint, so trimming can make progress.
  void SeedAck(OperatorId down_op, InstanceId down_instance,
               int64_t position) {
    trims_.SeedAck(down_op, down_instance, position);
  }

  // -------------------------------------------------------------- metrics

  /// Busy time since the last call (see JobScheduler::TakeBusyMicros).
  double TakeBusyMicros() { return scheduler_.TakeBusyMicros(); }

  size_t queued_tuples() const { return scheduler_.queued_tuples(); }
  uint64_t processed_tuples() const { return processed_tuples_; }

  /// Per-tuple cost of this instance on the reference core, µs.
  double CostMicrosPerTuple() const;

 private:
  class EmitCollector;

  // JobScheduler::Host: job cost model / snapshot at start, effects at end.
  void PrepareJob(JobScheduler::Job* job) override;
  void FinishJob(JobScheduler::Job* job) override;

  void ProcessBatch(core::TupleBatch* batch);
  void ConsumeAtSink(core::TupleBatch* batch);
  void ScheduleWindowTimer();
  void ScheduleSourceTick();
  void ScheduleAgeTrim();

  Cluster* cluster_;
  Params p_;
  core::OriginId origin_;

  std::unique_ptr<core::Operator> operator_;
  std::unique_ptr<core::SourceGenerator> source_;
  std::unique_ptr<core::SinkConsumer> sink_;

  bool alive_ = true;
  bool stopped_ = false;
  SimTime died_at_ = 0;

  core::InputPositions positions_;
  core::BufferState buffer_;

  uint64_t processed_tuples_ = 0;
  SimTime owed_source_time_ = 0;  // generation backlog while paused

  TrimTracker trims_;
  EmissionRouter router_;
  CheckpointPlane checkpoints_;
  JobScheduler scheduler_;
};

}  // namespace seep::runtime

#endif  // SEEP_RUNTIME_OPERATOR_INSTANCE_H_
