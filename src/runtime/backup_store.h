#ifndef SEEP_RUNTIME_BACKUP_STORE_H_
#define SEEP_RUNTIME_BACKUP_STORE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>

#include "common/ids.h"
#include "common/result.h"
#include "core/state.h"
#include "store/checkpoint_log.h"

namespace seep::verify {
class InvariantAuditor;
}  // namespace seep::verify

namespace seep::runtime {

/// Which tier(s) a stored backup lives in (ClusterConfig::backup_durability).
enum class BackupDurability : uint8_t {
  /// The paper's model: one in-memory copy at the upstream holder. A
  /// correlated owner+holder failure loses the state. Default, and
  /// byte-identical to the pre-durability behaviour.
  kMemory,
  /// Every backup lives only in the durable checkpoint log (modelling
  /// cluster-persistent storage); nothing is kept in holder memory.
  kDisk,
  /// Both: the in-memory copy serves the fast paths (incremental deltas,
  /// zero-copy restore) and the log covers correlated failures.
  kTiered,
};

/// Directory of checkpoint backups: which upstream instance (the paper's
/// backup(o)) holds the latest checkpoint of each operator instance, and the
/// checkpoint itself. Entries whose holder's VM fails become unavailable —
/// the scale-out algorithm then aborts and retries after re-backup, exactly
/// as §4.3 discusses — unless a durable tier (AttachDurable) also holds the
/// record, in which case Retrieve falls back to the on-disk copy and
/// recovery proceeds without a live holder.
class BackupStore {
 public:
  struct Entry {
    InstanceId holder = kInvalidInstance;
    core::StateCheckpoint checkpoint;
    /// True when Retrieve served this entry from the durable log rather
    /// than holder memory (the recovery plan then skips the holder-alive
    /// checks and ships nothing over the network).
    bool from_disk = false;
  };

  /// Wires the durable tier. `log` must outlive the store; `audit` may be
  /// null.
  void AttachDurable(store::CheckpointLog* log, BackupDurability mode,
                     verify::InvariantAuditor* audit);

  BackupDurability durability() const { return mode_; }

  /// store-backup(holder, owner, checkpoint): replaces any previous backup
  /// of `owner` (Algorithm 1 lines 5-6 delete the old holder's copy). With
  /// a durable tier the log append happens before the in-memory replace:
  /// once Store returns OK (and trim acks fire), the record is on disk.
  /// Returns non-OK only when NO tier holds the record — under kDisk a
  /// failed log append stores nothing, and acknowledging it upstream would
  /// trim tuples the backup cannot restore (the unchecked-status rule
  /// exists for exactly this path). Under kMemory/kTiered the in-memory
  /// copy always succeeds, so a durable-append failure only degrades
  /// durability (logged + counted by the caller), never the ack.
  /// `frame`, when not empty, is the checkpoint's frame as it arrived: the
  /// durable append writes those bytes instead of re-encoding.
  [[nodiscard]] Status Store(InstanceId owner, InstanceId holder,
                             core::StateCheckpoint checkpoint,
                             std::span<const uint8_t> frame = {});

  /// retrieve-backup(backup(o), o). Returns a copy; restore/partition paths
  /// need one anyway. Hot paths that only inspect or mutate the stored
  /// entry should use Find/Mutable to avoid copying the whole checkpoint.
  /// With a durable tier, a backup missing from memory (holder died, or
  /// kDisk mode) is read back from the log and marked from_disk.
  [[nodiscard]] Result<Entry> Retrieve(InstanceId owner) const;

  /// Zero-copy peek at a stored backup (e.g. the per-checkpoint incremental
  /// eligibility check, which only reads holder and seq). Null if absent
  /// from memory — the durable tier is deliberately not consulted, so under
  /// kDisk incremental checkpointing self-disables.
  const Entry* Find(InstanceId owner) const;

  /// Mutable access for in-place delta application: the holder folds an
  /// incremental checkpoint into its stored base without copying the base
  /// out and back. Null if absent. Callers that mutate the checkpoint must
  /// call RefreshDurable afterwards so the log tier catches up.
  Entry* Mutable(InstanceId owner);

  /// Re-appends `owner`'s current in-memory checkpoint to the durable log
  /// (after an in-place delta apply). No-op (OK) in kMemory mode. A
  /// failure leaves the durable tier one delta behind the (canonical)
  /// in-memory copy; callers surface it as a store failure metric.
  [[nodiscard]] Status RefreshDurable(InstanceId owner);

  /// Deletes the backup everywhere: memory now, and — with a durable tier —
  /// a terminal tombstone record in the log. Reach this through
  /// Cluster::DeleteBackup, the one choke point for deleting a backup.
  void Delete(InstanceId owner);

  /// Previous backup holder, or kInvalidInstance (Algorithm 1's backup(o)).
  /// Consults memory first, then the durable index.
  InstanceId HolderOf(InstanceId owner) const;

  /// True when a backup exists in any tier.
  bool Has(InstanceId owner) const;

  /// Latest stored checkpoint sequence for `owner` across tiers, or
  /// nullopt. The stale-store guard uses this instead of Find so it also
  /// holds in kDisk mode.
  std::optional<uint64_t> LatestSeq(InstanceId owner) const;

  /// Drops every backup held BY `holder` (its VM failed, taking the stored
  /// checkpoints with it). Returns how many in-memory copies were lost.
  /// Durable records survive — that is the point of the log tier.
  size_t DropHeldBy(InstanceId holder);

 private:
  [[nodiscard]] Status AppendDurable(InstanceId owner, InstanceId holder,
                                     const core::StateCheckpoint& checkpoint,
                                     std::span<const uint8_t> frame);
  [[nodiscard]] Result<Entry> RetrieveDurable(InstanceId owner) const;

  std::map<InstanceId, Entry> entries_;
  store::CheckpointLog* log_ = nullptr;
  BackupDurability mode_ = BackupDurability::kMemory;
  verify::InvariantAuditor* audit_ = nullptr;
};

}  // namespace seep::runtime

#endif  // SEEP_RUNTIME_BACKUP_STORE_H_
