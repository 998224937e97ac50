#include "runtime/backup_store.h"

#include <utility>

#include "common/logging.h"
#include "verify/invariant_auditor.h"

namespace seep::runtime {
void BackupStore::AttachDurable(store::CheckpointLog* log,
                                BackupDurability mode, bool compress,
                                verify::InvariantAuditor* audit) {
  log_ = log;
  mode_ = mode;
  compress_ = compress;
  audit_ = audit;
  if (audit_ != nullptr) {
    audit_->SetDurableMode(mode_ != BackupDurability::kMemory &&
                           log_ != nullptr);
  }
}

[[nodiscard]] Status BackupStore::AppendDurable(
    InstanceId owner, InstanceId holder,
    const core::StateCheckpoint& checkpoint, const EncodedCkptFrame* frame) {
  if (mode_ == BackupDurability::kMemory || log_ == nullptr) {
    return Status::OK();
  }
  EncodedCkptFrame fresh;
  if (frame == nullptr) {
    fresh = EncodeCheckpointFrame(checkpoint, compress_);
    frame = &fresh;
  }
  store::RecordMeta meta;
  meta.owner = owner;
  meta.owner_op = checkpoint.op;
  meta.holder = holder;
  meta.seq = checkpoint.seq;
  meta.raw_bytes = frame->raw_bytes;
  meta.compressed = frame->compressed;
  const Status st =
      log_->Append(meta, frame->frame.data(), frame->frame.size());
  if (!st.ok()) {
    SEEP_LOG(kWarn, 0) << "durable append for instance " << owner
                       << " seq " << checkpoint.seq
                       << " failed: " << st.message();
    return st;
  }
  if (audit_ != nullptr) {
    audit_->OnDurableAppend(owner, checkpoint.seq);
    const auto indexed = log_->Find(owner);
    audit_->OnDurableIndexState(owner, indexed.has_value(),
                                indexed.has_value() ? indexed->seq : 0);
    if (audit_->level() >= verify::kAuditExpensive) {
      const Status spot = log_->SpotCheck(owner);
      if (!spot.ok()) audit_->OnDurableIndexDivergence(spot.message());
    }
  }
  return Status::OK();
}

[[nodiscard]] Status BackupStore::Store(InstanceId owner, InstanceId holder,
                                        core::StateCheckpoint checkpoint,
                                        const EncodedCkptFrame* frame) {
  // The durable append happens before the in-memory replace: by the time
  // the caller fires trim acks off this store, the record is in the log.
  const Status durable = AppendDurable(owner, holder, checkpoint, frame);
  if (mode_ == BackupDurability::kDisk) return durable;  // no memory tier
  entries_[owner] = Entry{holder, std::move(checkpoint), false};
  return Status::OK();  // the memory tier holds it; degradation is logged
}

[[nodiscard]]
Result<BackupStore::Entry> BackupStore::Retrieve(InstanceId owner) const {
  auto it = entries_.find(owner);
  if (it != entries_.end()) return it->second;
  if (mode_ != BackupDurability::kMemory && log_ != nullptr) {
    return RetrieveDurable(owner);
  }
  return Status::NotFound("no backup for instance");
}

[[nodiscard]] Result<BackupStore::Entry> BackupStore::RetrieveDurable(
    InstanceId owner) const {
  const auto meta = log_->Find(owner);
  if (!meta.has_value()) {
    return Status::NotFound("no backup for instance");
  }
  SEEP_ASSIGN_OR_RETURN(const std::vector<uint8_t> frame,
                        log_->ReadPayload(owner));
  auto ckpt = DecodeCheckpointFrame(frame, meta->raw_bytes,
                                    meta->compressed);
  if (!ckpt.ok()) {
    // The record passed its crc32c at append and at every recovery scan; a
    // decode failure here is index/log divergence, not line noise.
    if (audit_ != nullptr) {
      audit_->OnDurableIndexDivergence(
          "durable record for instance " + std::to_string(owner) +
          " no longer decodes: " + ckpt.status().message());
    }
    return ckpt.status();
  }
  Entry entry;
  entry.holder = meta->holder;
  entry.checkpoint = std::move(ckpt).value();
  entry.from_disk = true;
  return entry;
}

const BackupStore::Entry* BackupStore::Find(InstanceId owner) const {
  auto it = entries_.find(owner);
  return it == entries_.end() ? nullptr : &it->second;
}

BackupStore::Entry* BackupStore::Mutable(InstanceId owner) {
  auto it = entries_.find(owner);
  return it == entries_.end() ? nullptr : &it->second;
}

[[nodiscard]] Status BackupStore::RefreshDurable(InstanceId owner) {
  if (mode_ == BackupDurability::kMemory || log_ == nullptr) {
    return Status::OK();
  }
  auto it = entries_.find(owner);
  if (it == entries_.end()) return Status::OK();
  return AppendDurable(owner, it->second.holder, it->second.checkpoint,
                       nullptr);
}

void BackupStore::Delete(InstanceId owner) {
  entries_.erase(owner);
  if (mode_ == BackupDurability::kMemory || log_ == nullptr) return;
  const Status st = log_->AppendTombstone(owner);
  if (!st.ok()) {
    SEEP_LOG(kWarn, 0) << "durable tombstone for instance " << owner
                       << " failed: " << st.message();
    return;
  }
  if (audit_ != nullptr) {
    audit_->OnDurableTombstone(owner);
    const auto indexed = log_->Find(owner);
    audit_->OnDurableIndexState(owner, indexed.has_value(),
                                indexed.has_value() ? indexed->seq : 0);
  }
}

InstanceId BackupStore::HolderOf(InstanceId owner) const {
  auto it = entries_.find(owner);
  if (it != entries_.end()) return it->second.holder;
  if (mode_ != BackupDurability::kMemory && log_ != nullptr) {
    const auto meta = log_->Find(owner);
    if (meta.has_value()) return meta->holder;
  }
  return kInvalidInstance;
}

bool BackupStore::Has(InstanceId owner) const {
  if (entries_.contains(owner)) return true;
  return mode_ != BackupDurability::kMemory && log_ != nullptr &&
         log_->Has(owner);
}

std::optional<uint64_t> BackupStore::LatestSeq(InstanceId owner) const {
  auto it = entries_.find(owner);
  if (it != entries_.end()) return it->second.checkpoint.seq;
  if (mode_ != BackupDurability::kMemory && log_ != nullptr) {
    const auto meta = log_->Find(owner);
    if (meta.has_value()) return meta->seq;
  }
  return std::nullopt;
}

size_t BackupStore::DropHeldBy(InstanceId holder) {
  size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.holder == holder) {
      it = entries_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

}  // namespace seep::runtime
