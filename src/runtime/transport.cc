#include "runtime/transport.h"

#include <utility>

#include "common/logging.h"
#include "core/state_ops.h"
#include "runtime/ckpt_pipeline.h"
#include "runtime/cluster.h"
#include "runtime/operator_instance.h"

namespace seep::runtime {

InstanceId ChooseBackupHolder(const Cluster* cluster,
                              const OperatorInstance* owner) {
  const std::vector<InstanceId> upstream =
      cluster->membership()->UpstreamInstancesOf(owner->op());
  if (upstream.empty()) return kInvalidInstance;
  return cluster->config().spread_backups
             ? core::ChooseBackupInstance(owner->id(), upstream)
             : upstream.front();
}

namespace {

/// Algorithm 1 lines 3-7 on the holder's side, run when a backup arrives:
/// validity/suspension guards, store (or delta-apply onto the held base)
/// with the stale-sequence guard, audit hook, metrics, and the trim
/// acknowledgements to the owner's upstream instances. The arrived frame,
/// if any, is what a durable tier appends.
void DeliverCheckpointToHolder(Cluster* cluster, InstanceId owner_id,
                               OperatorId owner_op, InstanceId holder_id,
                               ArrivedCheckpoint arrived) {
  Membership* members = cluster->membership();
  MetricsRegistry* metrics = cluster->metrics();
  core::StateCheckpoint& ckpt = arrived.ckpt;
  const uint64_t bytes = ckpt.ByteSize();
  const SimTime taken_at = ckpt.taken_at;
  OperatorInstance* h = members->GetInstance(holder_id);
  if (h == nullptr || !h->alive() || h->stopped()) return;
  OperatorInstance* o = members->GetInstance(owner_id);
  // The owner died or was stopped meanwhile. Stopping is the first step of
  // retiring an instance, and a compensation retires the instances it
  // deployed without suspending their checkpoints: a backup stored for
  // such an owner would land over its tombstone.
  if (o == nullptr || !o->alive() || o->stopped()) return;
  // A checkpoint caught in flight when the scale-out coordinator suspended
  // the owner must not land: the coordinator already retrieved the older
  // backup as the restore point, and this checkpoint's trim
  // acknowledgements would drop upstream tuples that restore point still
  // needs replayed.
  if (o->checkpoints_suspended()) return;

  // Algorithm 1 lines 3/5-7: store (or apply a delta onto the held base),
  // superseding any previous holder.
  const core::InputPositions positions = ckpt.positions;
  uint64_t stored_seq = 0;
  if (ckpt.is_delta) {
    BackupStore::Entry* entry = cluster->backups()->Mutable(owner_id);
    if (entry == nullptr || entry->holder != holder_id) {
      ++metrics->delta_apply_failures;
      return;  // base missing or moved; the next full resyncs
    }
    // Applied in place on the stored base: ApplyDelta validates before
    // mutating, so a rejected delta leaves the older consistent base.
    const Status applied = core::ApplyDelta(&entry->checkpoint, ckpt);
    if (!applied.ok()) {
      ++metrics->delta_apply_failures;
      return;  // out-of-order delta; keep the older consistent base
    }
    stored_seq = entry->checkpoint.seq;
    // The in-place mutation bypassed Store; re-append so the durable tier
    // catches up with the folded base (no-op in kMemory mode). The
    // in-memory copy stays canonical, so a refresh failure degrades
    // durability (counted) without blocking the ack below.
    const Status refreshed = cluster->backups()->RefreshDurable(owner_id);
    if (!refreshed.ok()) ++metrics->ckpt_store_failures;
  } else {
    // Background checkpoint shipments to different holders can arrive out
    // of order; a stale one must never supersede a fresher stored
    // checkpoint whose higher positions were already acknowledged upstream
    // (recovery from the stale one would need trimmed tuples). LatestSeq
    // consults every tier, so the guard also holds under kDisk where no
    // in-memory entry exists.
    const auto existing = cluster->backups()->LatestSeq(owner_id);
    if (existing.has_value() && *existing >= ckpt.seq) {
      return;
    }
    stored_seq = ckpt.seq;
    const Status stored = cluster->backups()->Store(
        owner_id, holder_id, std::move(ckpt), arrived.frame);
    if (!stored.ok()) {
      // Nothing holds this checkpoint (kDisk append failed). Firing the
      // trim acks below would let upstream buffers drop tuples the
      // (nonexistent) backup cannot replay — the exact lost-window bug
      // the unchecked-status rule guards. Skip the stored event and the
      // acks; the owner's next checkpoint retries the append.
      ++metrics->ckpt_store_failures;
      return;
    }
  }
  if (auto* audit = cluster->audit()) {
    audit->OnCheckpointStored(owner_id, o->vm(), holder_id, h->vm(),
                              stored_seq);
  }
  metrics->checkpoints_taken++;
  metrics->checkpoint_bytes += bytes;
  // Capture-to-stored latency of the whole pipeline (sampling only; no
  // effect on simulated behaviour).
  metrics->ckpt_e2e_ms.Add(SimToMillis(cluster->Now() - taken_at));

  // Algorithm 1 line 4: acknowledge the checkpointed positions to all
  // upstream instances so they can trim their output buffers.
  for (OperatorId up_op : cluster->graph()->Upstream(owner_op)) {
    for (InstanceId uid : members->LiveInstancesOf(up_op)) {
      OperatorInstance* u = members->GetInstance(uid);
      u->OnTrimAck(owner_op, owner_id, positions.Get(u->origin()));
    }
  }
}

}  // namespace

void ShipToBackupHolder(Cluster* cluster, OperatorInstance* owner,
                        CheckpointParcel parcel) {
  // Algorithm 1 line 2: spread backup load over upstream instances by hash
  // (unless disabled for the ablation baseline).
  const InstanceId holder_id = ChooseBackupHolder(cluster, owner);
  if (holder_id == kInvalidInstance) return;  // no live upstream
  const OperatorInstance* holder = cluster->GetInstance(holder_id);
  SEEP_CHECK(holder != nullptr);
  parcel.background = true;
  cluster->transport()->ShipCheckpoint(
      owner->vm(), holder->vm(), std::move(parcel),
      [cluster, owner_id = owner->id(), owner_op = owner->op(),
       holder_id](ArrivedCheckpoint arrived) {
        DeliverCheckpointToHolder(cluster, owner_id, owner_op, holder_id,
                                  std::move(arrived));
      });
}

void ReceiveCheckpointFrame(Cluster* cluster, std::vector<uint8_t> frame,
                            const ArrivalFn& on_arrival) {
  auto ckpt = DecodeCheckpointFrame(frame);
  if (!ckpt.ok()) {
    ++cluster->metrics()->ckpt_decode_failures;
    return;
  }
  on_arrival(ArrivedCheckpoint{std::move(ckpt).value(), std::move(frame)});
}

void SimTransport::AttachVm(VmId vm) { cluster_->network()->Attach(vm); }

void SimTransport::DetachVm(VmId vm) { cluster_->network()->Detach(vm); }

SendPressure SimTransport::SendBatch(OperatorInstance* from, InstanceId to,
                                     core::TupleBatch batch) {
  batch.from = from->id();
  Membership* members = cluster_->membership();
  const OperatorInstance* dest = members->GetInstance(to);
  if (dest == nullptr) return SendPressure::kNone;
  const uint64_t bytes = batch.SerializedSize();
  cluster_->network()->Send(
      from->vm(), dest->vm(), bytes,
      [members, to, batch = std::move(batch)]() mutable {
        OperatorInstance* target = members->GetInstance(to);
        if (target != nullptr) target->OnBatch(std::move(batch));
      });
  return SendPressure::kNone;
}

void SimTransport::ShipCheckpoint(VmId from, VmId to, CheckpointParcel parcel,
                                  ArrivalFn on_arrival) {
  if (auto* frame = std::get_if<std::vector<uint8_t>>(&parcel.body)) {
    // Background sends never hold up the data path, so one message of the
    // frame's size models the ship; it is decoded on arrival.
    const uint64_t bytes = frame->size();
    cluster_->network()->Send(
        from, to, bytes,
        [cluster = cluster_, shipped = std::move(*frame),
         on_arrival = std::move(on_arrival)]() mutable {
          ReceiveCheckpointFrame(cluster, std::move(shipped), on_arrival);
        },
        parcel.background);
    return;
  }
  // A materialized checkpoint is handed over in memory at its modeled size.
  auto& ckpt = std::get<core::StateCheckpoint>(parcel.body);
  const uint64_t bytes = ckpt.ByteSize();
  cluster_->network()->Send(
      from, to, bytes,
      [ckpt = std::move(ckpt), on_arrival = std::move(on_arrival)]() mutable {
        on_arrival(ArrivedCheckpoint{std::move(ckpt), {}});
      },
      parcel.background);
}

}  // namespace seep::runtime
