#ifndef SEEP_RUNTIME_CHECKPOINT_PLANE_H_
#define SEEP_RUNTIME_CHECKPOINT_PLANE_H_

#include <map>

#include "common/ids.h"
#include "core/state.h"

namespace seep::runtime {

class Cluster;
class OperatorInstance;

/// The checkpoint schedule and snapshot logic of one operator instance:
/// periodic full/delta checkpoints, suspension during scale-out, and the
/// sequence/shipped-buffer bookkeeping that decides when an incremental
/// checkpoint is admissible (paper §3.2 and Algorithm 1).
class CheckpointPlane {
 public:
  CheckpointPlane(Cluster* cluster, OperatorInstance* instance)
      : cluster_(cluster), inst_(instance) {}

  /// Begins the periodic checkpoint timer (R+SM mode, inner operators).
  void StartSchedule();

  /// Freezes the schedule while the scale-out coordinator is partitioning
  /// this instance's backed-up state: a fresher checkpoint landing
  /// mid-operation would trim upstream buffers past the restore point. (The
  /// paper's Algorithm 3 likewise never asks the overloaded operator to
  /// checkpoint during its own scale out.) Suspension also aborts in-flight
  /// asynchronous checkpoints at their next pipeline stage boundary.
  void Suspend();
  void Resume();
  bool suspended() const { return suspended_; }

  /// checkpoint-state(o) → (θo, τo, βo): snapshots the processing state,
  /// positions and replay buffers — a full checkpoint, or with `delta` only
  /// the state entries changed since the previous checkpoint, the new
  /// buffer tuples and the buffer fronts the holder mirrors. Advances the
  /// sequence/shipped-buffer lineage. The checkpoint job captures at its
  /// start and quiesced scale-in captures a full one to merge.
  core::StateCheckpoint Capture(bool delta);

  /// Schedules an asynchronous checkpoint's serialization and shipping
  /// (one deferred simulation event charged the modeled serialization
  /// cost), or aborts it cleanly when the instance died, stopped or was
  /// suspended while the capture job waited its service time; the next
  /// full checkpoint's sequence-mismatch fallback heals the skipped delta.
  void ShipAsync(core::StateCheckpoint ckpt);

  /// Whether the next periodic checkpoint may be shipped as a delta
  /// (incremental mode on, operator supports it, a full base is stored at
  /// the holder Algorithm 1 currently selects, and no full resync is due).
  bool CanCheckpointIncrementally() const;

  /// Continues the checkpoint lineage of a restored checkpoint: the restored
  /// state equals the stored base of its sequence number, so subsequent
  /// delta checkpoints apply cleanly on top of it.
  void OnRestore(const core::StateCheckpoint& checkpoint);

  /// Forgets all lineage (ResetEmpty).
  void Reset();

 private:
  void ScheduleTimer();
  core::StateCheckpoint CaptureFull();
  core::StateCheckpoint CaptureDelta();

  Cluster* cluster_;
  OperatorInstance* inst_;
  bool suspended_ = false;
  uint64_t ckpt_seq_ = 0;
  // Highest buffered timestamp shipped per downstream op (delta checkpoint
  // bookkeeping).
  std::map<OperatorId, int64_t> shipped_buffer_back_;
};

}  // namespace seep::runtime

#endif  // SEEP_RUNTIME_CHECKPOINT_PLANE_H_
