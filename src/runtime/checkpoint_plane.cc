#include "runtime/checkpoint_plane.h"

#include <utility>

#include "runtime/ckpt_pipeline.h"
#include "runtime/cluster.h"
#include "runtime/operator_instance.h"
#include "runtime/transport.h"

namespace seep::runtime {

namespace {
// With incremental checkpoints, every kFullCheckpointEvery-th checkpoint is
// a full resync, which bounds staleness after any failed delta apply.
constexpr uint64_t kFullCheckpointEvery = 12;
}  // namespace

void CheckpointPlane::StartSchedule() { ScheduleTimer(); }

void CheckpointPlane::ScheduleTimer() {
  cluster_->simulation()->Schedule(
      cluster_->config().checkpoint_interval, [this]() {
        if (!inst_->alive() || inst_->stopped()) return;
        if (!suspended_) {
          JobScheduler::Job job;
          job.kind = JobScheduler::Job::Kind::kCheckpoint;
          inst_->EnqueueJob(std::move(job));
        }
        ScheduleTimer();
      });
}

void CheckpointPlane::Suspend() {
  suspended_ = true;
  if (auto* audit = cluster_->audit()) {
    audit->OnCheckpointsSuspended(inst_->id());
  }
}

void CheckpointPlane::Resume() {
  suspended_ = false;
  if (auto* audit = cluster_->audit()) {
    audit->OnCheckpointsResumed(inst_->id());
  }
}

core::StateCheckpoint CheckpointPlane::Capture(bool delta) {
  return delta ? CaptureDelta() : CaptureFull();
}

core::StateCheckpoint CheckpointPlane::CaptureFull() {
  core::Operator* op = inst_->operator_impl();
  core::StateCheckpoint c;
  c.op = inst_->op();
  c.instance = inst_->id();
  c.origin = inst_->origin();
  c.key_range = inst_->key_range();
  c.out_clock = inst_->out_clock();
  c.seq = ++ckpt_seq_;
  c.taken_at = cluster_->Now();
  c.positions = inst_->positions();
  if (op != nullptr && op->IsStateful()) {
    c.processing = op->GetProcessingState();
    // A full checkpoint captures everything; reset delta tracking so the
    // next incremental checkpoint starts from this base.
    op->ClearStateDelta();
  }
  // β whole, including the entries of deployed downstreams with nothing
  // buffered (restore recreates them).
  c.buffer = inst_->buffer_state();
  for (const auto& [op_id, tuples] : c.buffer.buffers()) {
    shipped_buffer_back_[op_id] =
        tuples.empty() ? inst_->out_clock() : tuples.back().timestamp;
  }
  return c;
}

core::StateCheckpoint CheckpointPlane::CaptureDelta() {
  core::StateCheckpoint c;
  c.op = inst_->op();
  c.instance = inst_->id();
  c.origin = inst_->origin();
  c.key_range = inst_->key_range();
  c.out_clock = inst_->out_clock();
  c.seq = ckpt_seq_ + 1;
  c.base_seq = ckpt_seq_;
  ++ckpt_seq_;
  c.taken_at = cluster_->Now();
  c.positions = inst_->positions();
  c.is_delta = true;
  // The operator's dirty-key tracking makes this O(changed keys): only
  // entries written since the base checkpoint are captured.
  core::StateDelta delta = inst_->operator_impl()->TakeProcessingStateDelta();
  c.processing = std::move(delta.updated);
  c.deleted_keys = std::move(delta.deleted);
  // Buffer delta: the unshipped suffix past the last shipped timestamp
  // (a downstream with nothing new gets no entry), plus the current buffer
  // fronts so the holder can mirror our trims. Buffers are
  // timestamp-sorted, so the suffix starts at a binary search.
  for (const auto& [op_id, tuples] : inst_->buffer_state().buffers()) {
    const int64_t shipped = [&] {
      auto it = shipped_buffer_back_.find(op_id);
      return it == shipped_buffer_back_.end() ? INT64_MIN : it->second;
    }();
    c.buffer_front[op_id] =
        tuples.empty() ? inst_->out_clock() + 1 : tuples.front().timestamp;
    c.buffer.AppendFrom(op_id, tuples, tuples.UpperBound(shipped));
    shipped_buffer_back_[op_id] =
        tuples.empty() ? inst_->out_clock() : tuples.back().timestamp;
  }
  return c;
}

void CheckpointPlane::ShipAsync(core::StateCheckpoint ckpt) {
  if (!inst_->alive() || inst_->stopped() || suspended_) {
    // Clean abort: the checkpoint is discarded before serialization. Its
    // sequence number was consumed, so the holder's stored seq now trails
    // ckpt_seq_ and CanCheckpointIncrementally forces the next checkpoint
    // to be a full resync — no torn lineage.
    ++cluster_->metrics()->async_ckpts_aborted;
    if (auto* audit = cluster_->audit()) {
      audit->OnAsyncCheckpointAborted(inst_->id(), ckpt.seq);
    }
    return;
  }
  ++cluster_->metrics()->async_ckpt_captures;
  // Serialization is one deferred simulation event, on either backend: the
  // modeled serialization cost (the one the synchronous path charges as a
  // pause) elapses off the processing path, then the frame is built and
  // shipped.
  const double kib =
      static_cast<double>(ckpt.processing.ByteSize() + 64) / 1024.0;
  const auto delay =
      static_cast<SimTime>(kib * cluster_->config().serialize_cost_us_per_kb);
  cluster_->simulation()->Schedule(
      delay, [cluster = cluster_, ckpt = std::move(ckpt)]() {
        ShipSerializedCheckpoint(
            cluster, SerializeCheckpoint(ckpt, kCompressCheckpoints));
      });
}

bool CheckpointPlane::CanCheckpointIncrementally() const {
  const ClusterConfig& config = cluster_->config();
  core::Operator* op = inst_->operator_impl();
  if (!config.incremental_checkpoints) return false;
  if (op == nullptr) return false;
  // Stateless operators always qualify: their delta is just the new buffer
  // tuples. Stateful operators must track dirty keys (including deletions).
  if (op->IsStateful() && !op->SupportsIncrementalState()) {
    return false;
  }
  if ((ckpt_seq_ + 1) % kFullCheckpointEvery == 0) return false;
  // The stored base must be at this sequence and at the holder Algorithm 1
  // would pick now (upstream repartitioning moves the holder). Find, not
  // Retrieve: this runs before every checkpoint and must not copy the base.
  const BackupStore::Entry* entry = cluster_->backups()->Find(inst_->id());
  if (entry == nullptr) return false;
  if (entry->checkpoint.seq != ckpt_seq_) return false;
  return entry->holder == ChooseBackupHolder(cluster_, inst_);
}

void CheckpointPlane::OnRestore(const core::StateCheckpoint& checkpoint) {
  ckpt_seq_ = checkpoint.seq;
  shipped_buffer_back_.clear();
  for (const auto& [op_id, tuples] : inst_->buffer_state().buffers()) {
    if (!tuples.empty()) shipped_buffer_back_[op_id] = tuples.back().timestamp;
  }
}

void CheckpointPlane::Reset() {
  ckpt_seq_ = 0;
  shipped_buffer_back_.clear();
}

}  // namespace seep::runtime
