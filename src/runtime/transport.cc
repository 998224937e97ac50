#include "runtime/transport.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "core/state_ops.h"
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
  if (o == nullptr || !o->alive()) return;  // owner died meanwhile
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
        owner_id, holder_id, std::move(ckpt),
        arrived.frame.has_value() ? &*arrived.frame : nullptr);
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
  // A stored checkpoint supersedes every partial chunk stream of the owner
  // it outranks.
  cluster->ckpt_reassembler()->ForgetThrough(owner_id, stored_seq);
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
  parcel.receiver = holder_id;
  parcel.background = true;
  cluster->transport()->ShipCheckpoint(
      owner->vm(), holder->vm(), std::move(parcel),
      [cluster, owner_id = owner->id(), owner_op = owner->op(),
       holder_id](ArrivedCheckpoint arrived) {
        DeliverCheckpointToHolder(cluster, owner_id, owner_op, holder_id,
                                  std::move(arrived));
      });
}

void ShipSerializedCheckpoint(Cluster* cluster, SerializedCkptFrame frame) {
  MetricsRegistry* metrics = cluster->metrics();
  OperatorInstance* owner = cluster->GetInstance(frame.owner);
  if (owner == nullptr || !owner->alive() || owner->stopped() ||
      owner->checkpoints_suspended()) {
    // The owner died, stopped or was suspended while the frame was being
    // serialized: abort the in-flight checkpoint cleanly. Suspension case:
    // the coordinator already chose an older backup as its restore point;
    // this frame's trim acks would drop tuples that point still needs.
    ++metrics->async_ckpts_aborted;
    if (auto* audit = cluster->audit()) {
      audit->OnAsyncCheckpointAborted(frame.owner, frame.seq);
    }
    return;
  }
  metrics->ckpt_raw_bytes += frame.raw_bytes;
  metrics->ckpt_wire_bytes += frame.frame.size();
  ShipToBackupHolder(cluster, owner, CheckpointParcel{std::move(frame)});
}

CkptChunkHeader ChunkStreamHeader(const SerializedCkptFrame& frame,
                                  InstanceId receiver, size_t chunk_bytes) {
  const size_t total = frame.frame.size();
  CkptChunkHeader header;
  header.owner = frame.owner;
  header.owner_op = frame.owner_op;
  header.holder = receiver;
  header.seq = frame.seq;
  header.count = static_cast<uint32_t>((total + chunk_bytes - 1) / chunk_bytes);
  header.frame_bytes = total;
  header.raw_bytes = frame.raw_bytes;
  header.compressed = frame.compressed;
  return header;
}

void ReceiveCheckpointChunk(Cluster* cluster, const CkptChunkHeader& header,
                            const uint8_t* data, size_t n,
                            const ArrivalFn& on_arrival) {
  MetricsRegistry* metrics = cluster->metrics();
  ++metrics->ckpt_chunks;
  if (auto* audit = cluster->audit()) {
    audit->OnCheckpointChunk(header.owner, header.holder, header.seq,
                             header.index, header.count, n,
                             header.frame_bytes);
  }
  auto frame = cluster->ckpt_reassembler()->OnChunk(header, data, n);
  if (!frame.has_value()) return;

  // The frame is whole: unframe (crc32c), decompress, decode. A failure at
  // any step, or a checkpoint other than the one the header names, drops
  // the parcel.
  auto ckpt =
      DecodeCheckpointFrame(*frame, header.raw_bytes, header.compressed);
  if (!ckpt.ok() || ckpt.value().instance != header.owner ||
      ckpt.value().op != header.owner_op || ckpt.value().seq != header.seq) {
    ++metrics->ckpt_decode_failures;
    return;
  }
  ArrivedCheckpoint arrived;
  arrived.ckpt = std::move(ckpt).value();
  arrived.frame = EncodedCkptFrame{std::move(*frame), header.raw_bytes,
                                   header.compressed};
  on_arrival(std::move(arrived));
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
  auto shared = std::make_shared<core::TupleBatch>(std::move(batch));
  cluster_->network()->Send(
      from->vm(), dest->vm(), bytes, [members, to, shared]() {
        OperatorInstance* target = members->GetInstance(to);
        if (target != nullptr) target->OnBatch(std::move(*shared));
      });
  return SendPressure::kNone;
}

namespace {

/// One in-flight chunked frame ship on the sim backend. Background
/// messages share no FIFO with each other (they only queue behind
/// foreground traffic), so firing every chunk at once would deliver the
/// short tail chunk first; instead chunk i+1 leaves only when chunk i is
/// delivered — the stream stays in order, the frame trickles out behind
/// data batches, and an owner dying mid-stream cuts it exactly at a chunk
/// boundary (the partial stream is superseded by the next checkpoint).
struct SimChunkStream {
  Cluster* cluster = nullptr;
  CkptChunkHeader header;  // index filled in per chunk
  SerializedCkptFrame frame;
  ArrivalFn on_arrival;
  VmId from = kInvalidVm;
  VmId to = kInvalidVm;
  size_t chunk_bytes = 0;
  bool background = true;
};

void SendChunk(const std::shared_ptr<SimChunkStream>& stream, uint32_t index) {
  CkptChunkHeader header = stream->header;
  header.index = index;
  const size_t total = stream->frame.frame.size();
  const size_t begin = static_cast<size_t>(index) * stream->chunk_bytes;
  const size_t len = std::min(stream->chunk_bytes, total - begin);
  stream->cluster->network()->Send(
      stream->from, stream->to, len,
      [stream, header, begin, len]() {
        ReceiveCheckpointChunk(stream->cluster, header,
                               stream->frame.frame.data() + begin, len,
                               stream->on_arrival);
        if (header.index + 1 < header.count) {
          SendChunk(stream, header.index + 1);
        }
      },
      stream->background);
}

}  // namespace

void SimTransport::ShipCheckpoint(VmId from, VmId to, CheckpointParcel parcel,
                                  ArrivalFn on_arrival) {
  if (auto* frame = std::get_if<SerializedCkptFrame>(&parcel.body)) {
    auto stream = std::make_shared<SimChunkStream>();
    stream->cluster = cluster_;
    stream->chunk_bytes =
        std::max<size_t>(1, cluster_->config().checkpoint_chunk_bytes);
    stream->header =
        ChunkStreamHeader(*frame, parcel.receiver, stream->chunk_bytes);
    stream->frame = std::move(*frame);
    stream->on_arrival = std::move(on_arrival);
    stream->from = from;
    stream->to = to;
    stream->background = parcel.background;
    SendChunk(stream, 0);
    return;
  }
  // A materialized checkpoint is handed over in memory at its modeled size.
  auto shared = std::make_shared<core::StateCheckpoint>(
      std::move(std::get<core::StateCheckpoint>(parcel.body)));
  const uint64_t bytes = shared->ByteSize();
  cluster_->network()->Send(
      from, to, bytes,
      [shared, on_arrival = std::move(on_arrival)]() {
        on_arrival(ArrivedCheckpoint{std::move(*shared), std::nullopt});
      },
      parcel.background);
}

}  // namespace seep::runtime
