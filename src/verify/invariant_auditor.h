#ifndef SEEP_VERIFY_INVARIANT_AUDITOR_H_
#define SEEP_VERIFY_INVARIANT_AUDITOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "core/key_range.h"
#include "core/state.h"

namespace seep::verify {

/// Audit levels. Level 1 checks are per-event (trims, routing installs,
/// checkpoint stores, fences) and cheap enough for figure benches; level 2
/// adds per-tuple and whole-table sweeps (sink exactly-once stamp sets, full
/// routing-table re-verification) whose memory and CPU grow with the run.
enum AuditLevel : int {
  kAuditOff = 0,
  kAuditCheap = 1,
  kAuditExpensive = 2,
};

/// The audit level a fresh ClusterConfig defaults to: the SEEP_AUDIT
/// environment variable ("0"/"1"/"2") when set, else the compile-time
/// default baked in by the SEEP_AUDIT CMake option (level 1), else off.
int DefaultAuditLevel();

/// One detected protocol violation. `invariant` is a stable, documented name
/// (see DESIGN.md §7) that mutation tests and postmortems key on.
struct Violation {
  std::string invariant;
  std::string detail;
};

/// Observes the runtime through the component interfaces (TrimTracker,
/// CheckpointPlane via Transport, EmissionRouter via the sink path,
/// FenceRegistry, the routing installs of control/) and asserts the SEEP
/// protocol invariants of Algorithms 1-3. The auditor keeps its own mirror
/// of the protocol state it audits — acknowledgement and sent positions,
/// fence send counts, stored checkpoint sequences — so a corrupted component
/// table disagrees with the mirror and trips the check instead of silently
/// re-deriving the corruption.
///
/// By default a violation prints `SEEP_AUDIT violation <name>: <detail>` and
/// aborts; tests install a collecting handler instead. All hooks are no-ops
/// at levels below the check's level, and call sites guard on a null auditor
/// pointer, so an audit-off build pays one branch per hook.
class InvariantAuditor {
 public:
  using Handler = std::function<void(const Violation&)>;

  explicit InvariantAuditor(int level);

  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;

  int level() const { return level_; }

  /// Replaces the abort-on-violation default (tests collect instead).
  void SetHandler(Handler handler) { handler_ = std::move(handler); }

  /// Violations seen so far (only meaningful with a non-aborting handler).
  uint64_t violations() const { return violations_; }

  // ------------------------------------------------ Algorithm 1: trimming

  /// Upstream instance `at` sent a tuple with `timestamp` to `dest` of
  /// downstream logical operator `down_op` (TrimTracker::NoteSent).
  void OnNoteSent(InstanceId at, OperatorId down_op, InstanceId dest,
                  int64_t timestamp);

  /// Downstream instance `down_inst` acknowledged checkpoint coverage
  /// through `position` (TrimTracker::OnTrimAck).
  void OnTrimAck(InstanceId at, OperatorId down_op, InstanceId down_inst,
                 int64_t position);

  /// A coordinator seeded `down_inst`'s acknowledgement from a restored
  /// checkpoint (TrimTracker::SeedAck). Unlike acks, seeds may move the
  /// position backwards — but only for an instance id never seen before
  /// (instance ids are not reused); re-seeding a known instance backwards
  /// would un-cover already-trimmed tuples.
  void OnSeedAck(InstanceId at, OperatorId down_op, InstanceId down_inst,
                 int64_t position);

  /// Instance `at` is about to trim its output buffer for `down_op` through
  /// `up_to`, with `current` the downstream membership consulted. Asserts
  /// trim-monotonicity (per (at, down_op) the bound never regresses) and
  /// checkpoint-covers-trim (`up_to` does not exceed the bound the mirror
  /// derives from acknowledged checkpoint positions; Algorithm 1 line 4).
  void OnTrim(InstanceId at, OperatorId down_op, int64_t up_to,
              const std::vector<InstanceId>& current);

  /// A checkpoint of `owner` (hosted on `owner_vm`) seq `seq` was stored at
  /// `holder` (hosted on `holder_vm`). Asserts backup-placement (the backup
  /// lives on a different instance AND a different VM than the state it
  /// protects — otherwise one VM failure loses both copies) and
  /// checkpoint-seq-monotonicity (stored sequence numbers strictly increase
  /// per owner, so a stale checkpoint can never supersede a fresher one).
  void OnCheckpointStored(InstanceId owner, VmId owner_vm, InstanceId holder,
                          VmId holder_vm, uint64_t seq);

  // --------------------------------------- asynchronous checkpoint pipeline

  /// Checkpointing of `instance` was suspended/resumed by a coordinator.
  /// While suspended, OnCheckpointStored for that owner trips
  /// no-store-while-suspended: the coordinator chose an older backup as its
  /// restore point, and a fresher store's trim acks would drop tuples that
  /// restore point still needs replayed.
  void OnCheckpointsSuspended(InstanceId instance);
  void OnCheckpointsResumed(InstanceId instance);

  /// An in-flight asynchronous checkpoint of `owner` seq `seq` was aborted
  /// (owner died, stopped, or was suspended between pipeline stages). The
  /// aborted sequence must never be stored later — OnCheckpointStored trips
  /// aborted-checkpoint-stored if it is.
  void OnAsyncCheckpointAborted(InstanceId owner, uint64_t seq);

  // ----------------------------------------- Algorithm 2: partitioned state

  /// Routing for `down_op` was (re)installed. Asserts route-tiling: the
  /// routes exactly tile the full key space — sorted by range, no gap, no
  /// overlap, first lo == 0, last hi == UINT64_MAX — so every key routes to
  /// exactly one partition. At level 2 the whole remembered table is swept,
  /// not just the changed operator.
  void OnRoutesInstalled(OperatorId down_op,
                         const std::vector<core::RoutingState::Route>& routes);

  /// A checkpoint was partitioned into `parts` (Algorithm 2). Asserts
  /// partition-completeness: the partition ranges exactly tile the base
  /// range, every processing-state entry lands in exactly the partition
  /// whose range contains its key (none lost, none duplicated), and the
  /// buffered tuples are conserved across the split.
  void OnPartitioned(const core::StateCheckpoint& base,
                     const std::vector<core::StateCheckpoint>& parts);

  // ------------------------------------------- Algorithm 3: replay + fences

  /// Instance `from` replayed `tuples` buffered tuples to `to`
  /// (OperatorInstance::ReplayBuffer, before the fence is sent).
  void OnReplaySent(InstanceId from, InstanceId to, uint64_t tuples);

  /// Instance `from` sent fence `fence_id` to `to` on the same FIFO link as
  /// the replay batches. Snapshots the cumulative replay-sent count of the
  /// link; the fence "carries" that expectation.
  void OnFenceSent(uint64_t fence_id, InstanceId from, InstanceId to);

  /// A replay batch of `tuples` tuples from `from` was processed at `to`.
  void OnReplayProcessed(InstanceId from, InstanceId to, uint64_t tuples);

  /// Fence `fence_id` from `from` was processed at `to`. Asserts
  /// fence-before-replay: every replay tuple sent on the (from, to) link
  /// before the fence must have been processed at `to` already — a fence
  /// overtaking replayed tuples would complete recovery before the replay
  /// drained (Algorithm 3's drain proof would be a lie).
  void OnFenceProcessed(uint64_t fence_id, InstanceId from, InstanceId to);

  // ------------------------------------------- reconfiguration plane

  /// Reconfiguration plan `plan_id` (scale out/in, recovery) started for
  /// operator `op`. Asserts one-plan-per-operator: two concurrent plans
  /// reconfiguring the same operator would race on its routing and
  /// membership. Also snapshots the operator's routing mirror for the
  /// routes-restored-on-abort check.
  void OnPlanStarted(uint64_t plan_id, OperatorId op);

  /// The plan took ownership of VM `vm` (pool grant).
  void OnPlanVmAcquired(uint64_t plan_id, VmId vm);

  /// The plan handed VM `vm` off — consumed by a deployment or released
  /// back to the provider. Every acquired VM must be disposed before the
  /// plan finishes (no-leaked-vm).
  void OnPlanVmDisposed(uint64_t plan_id, VmId vm);

  /// The plan froze `instance`'s checkpoint schedule. On an aborted plan,
  /// every surviving frozen instance must have been resumed by the time the
  /// plan finishes (checkpoints-resumed-after-abort) — a partition left
  /// suspended would never back up again.
  void OnPlanSuspendedCheckpoints(uint64_t plan_id, InstanceId instance);

  /// `instance` crash-stopped (its VM died). Dead instances are exempt from
  /// the resume-after-abort check: they cannot checkpoint and their
  /// replacements start fresh schedules.
  void OnInstanceDead(InstanceId instance);

  /// The plan finished. `aborted` distinguishes commit from
  /// compensated-abort. Asserts no-leaked-vm (always) and, on abort,
  /// checkpoints-resumed-after-abort plus routes-restored-on-abort (an
  /// aborted plan must leave the operator's routing exactly as it found
  /// it).
  void OnPlanFinished(uint64_t plan_id, OperatorId op, bool aborted);

  // ------------------------------------------------ durable checkpoint log

  /// The cluster runs a durable backup tier (kDisk/kTiered). While set,
  /// OnCheckpointStored additionally asserts durable-log-covers-trim: the
  /// store that is about to trigger trim acks was preceded by a durable
  /// append of the same or newer sequence, so tuples are never trimmed on
  /// the strength of a checkpoint that only exists in volatile memory.
  void SetDurableMode(bool durable);

  /// A checkpoint record for `owner` seq `seq` was appended to the durable
  /// log. Asserts durable monotonicity (appends never regress per owner)
  /// and no-append-after-tombstone.
  void OnDurableAppend(InstanceId owner, uint64_t seq);

  /// A tombstone record for `owner` was appended (terminal delete).
  void OnDurableTombstone(InstanceId owner);

  /// The log's index view of `owner` after a mutation. Asserts
  /// index-matches-log: the index agrees with the mirror replayed from the
  /// append/tombstone stream — present exactly when appended and not
  /// tombstoned, at the latest appended sequence.
  void OnDurableIndexState(InstanceId owner, bool present, uint64_t seq);

  /// A disk-level divergence found by the log's own read-back checks
  /// (SpotCheck/VerifyIndex at level 2); reported under index-matches-log.
  void OnDurableIndexDivergence(const std::string& detail);

  // ----------------------------------------------- recovery: exactly-once

  /// A tuple stamped (origin, timestamp) survived duplicate filtering at a
  /// sink instance of logical operator `sink_op`. Level 2 only: asserts
  /// sink-exactly-once — no stamp is delivered twice across the whole
  /// lifetime of the sink operator, including across instance replacement
  /// and parallel recovery (the end-to-end guarantee of §3.2 recovery).
  void OnSinkDelivered(OperatorId sink_op, core::OriginId origin,
                       int64_t timestamp);

 private:
  void Fail(const std::string& invariant, std::string detail);

  /// Recomputes the admissible trim bound for (at, down_op) from the
  /// mirrored ack/sent tables — the same formula as TrimTracker::MaybeTrim,
  /// over independently accumulated inputs.
  int64_t AllowedTrimBound(InstanceId at, OperatorId down_op,
                           const std::vector<InstanceId>& current) const;

  void CheckTiling(OperatorId down_op,
                   const std::vector<core::RoutingState::Route>& routes);

  int level_;
  Handler handler_;
  uint64_t violations_ = 0;

  using PeerKey = std::pair<InstanceId, OperatorId>;   // (at, down_op)
  using LinkKey = std::pair<InstanceId, InstanceId>;   // (from, to)

  // Algorithm 1 mirrors.
  std::map<PeerKey, std::map<InstanceId, int64_t>> acks_;
  std::map<PeerKey, std::map<InstanceId, int64_t>> sent_;
  std::map<PeerKey, int64_t> last_trim_;
  std::map<InstanceId, uint64_t> last_stored_seq_;

  // Checkpoint-pipeline mirrors.
  std::set<InstanceId> suspended_;
  std::set<std::pair<InstanceId, uint64_t>> aborted_ckpts_;

  // Algorithm 2 mirror (for the level-2 whole-table sweep).
  std::map<OperatorId, std::vector<core::RoutingState::Route>> routes_;

  // Reconfiguration-plane mirrors.
  struct PlanMirror {
    OperatorId op = 0;
    std::set<VmId> outstanding_vms;
    std::set<InstanceId> suspended;
    bool had_routes = false;
    std::vector<core::RoutingState::Route> routes_at_start;
  };
  std::map<uint64_t, PlanMirror> plans_;
  std::map<OperatorId, uint64_t> active_plan_of_op_;
  std::set<InstanceId> dead_instances_;

  // Algorithm 3 mirrors.
  std::map<LinkKey, uint64_t> replay_sent_;
  std::map<LinkKey, uint64_t> replay_processed_;
  struct FenceSnapshot {
    uint64_t replay_sent_at_fence = 0;
  };
  std::map<std::pair<uint64_t, LinkKey>, FenceSnapshot> fence_snapshots_;

  // Durable-log mirrors.
  bool durable_ = false;
  std::map<InstanceId, uint64_t> durable_seq_;
  std::set<InstanceId> durable_tombstoned_;

  // Exactly-once stamp sets, per (sink_op, origin). Level 2 only.
  std::map<std::pair<OperatorId, core::OriginId>, std::unordered_set<int64_t>>
      sink_stamps_;
};

}  // namespace seep::verify

#endif  // SEEP_VERIFY_INVARIANT_AUDITOR_H_
