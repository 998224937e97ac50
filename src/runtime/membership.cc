#include "runtime/membership.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "runtime/cluster.h"
#include "runtime/operator_instance.h"

namespace seep::runtime {

Membership::Membership(Cluster* cluster) : cluster_(cluster) {}

Membership::~Membership() = default;

[[nodiscard]]
Result<InstanceId> Membership::DeployInstance(OperatorId op, VmId vm,
                                              core::KeyRange range,
                                              uint32_t source_index,
                                              uint32_t source_count) {
  const core::OperatorSpec* spec = cluster_->graph()->Get(op);
  if (spec == nullptr) return Status::NotFound("unknown operator");
  const cloud::Vm* vm_info = cluster_->provider()->GetVm(vm);
  if (vm_info == nullptr) return Status::NotFound("unknown VM");
  if (vm_info->state != cloud::VmState::kInUse &&
      vm_info->state != cloud::VmState::kPooled) {
    return Status::FailedPrecondition("VM not usable");
  }
  if (vm_to_instance_.contains(vm)) {
    return Status::AlreadyExists("VM already hosts an instance");
  }

  OperatorInstance::Params params;
  params.id = next_instance_id_++;
  params.op = op;
  params.spec = spec;
  params.vm = vm;
  params.vm_capacity = vm_info->capacity;
  params.range = range;
  params.origin = cluster_->NewOrigin();
  params.source_index = source_index;
  params.source_count = source_count;

  auto instance = std::make_unique<OperatorInstance>(cluster_, params);
  const InstanceId id = params.id;
  instances_.emplace(id, std::move(instance));
  partitions_[op].push_back(id);
  vm_to_instance_[vm] = id;
  cluster_->transport()->AttachVm(vm);
  RecordVmsInUse();
  return id;
}

OperatorInstance* Membership::GetInstance(InstanceId id) {
  auto it = instances_.find(id);
  return it == instances_.end() ? nullptr : it->second.get();
}

const OperatorInstance* Membership::GetInstance(InstanceId id) const {
  auto it = instances_.find(id);
  return it == instances_.end() ? nullptr : it->second.get();
}

std::vector<InstanceId> Membership::InstancesOf(OperatorId op) const {
  auto it = partitions_.find(op);
  return it == partitions_.end() ? std::vector<InstanceId>{} : it->second;
}

std::vector<InstanceId> Membership::LiveInstancesOf(OperatorId op) const {
  std::vector<InstanceId> out;
  for (InstanceId id : InstancesOf(op)) {
    const OperatorInstance* inst = GetInstance(id);
    if (inst != nullptr && inst->alive() && !inst->stopped()) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<InstanceId> Membership::UpstreamInstancesOf(OperatorId op) const {
  std::vector<InstanceId> out;
  for (OperatorId up : cluster_->graph()->Upstream(op)) {
    for (InstanceId id : LiveInstancesOf(up)) out.push_back(id);
  }
  return out;
}

void Membership::RetireInstance(InstanceId id, bool release_vm) {
  StopInstance(id, release_vm);
  FinalizeRetire(id);
}

void Membership::StopInstance(InstanceId id, bool release_vm) {
  OperatorInstance* inst = GetInstance(id);
  if (inst == nullptr) return;
  inst->Stop();
  if (release_vm && inst->vm() != kInvalidVm) {
    cluster_->transport()->DetachVm(inst->vm());
    vm_to_instance_.erase(inst->vm());
    // Retire races VM failure; anything beyond "already terminated"
    // is a leaked-VM bookkeeping bug and aborts inside the helper.
    cluster_->provider()->ReleaseVmCompensating(inst->vm());
  }
  RecordVmsInUse();
}

void Membership::FinalizeRetire(InstanceId id) {
  OperatorInstance* inst = GetInstance(id);
  if (inst == nullptr) return;
  auto& members = partitions_[inst->op()];
  members.erase(std::remove(members.begin(), members.end(), id),
                members.end());
  // The choke point drops the retired instance's backup and tombstones the
  // durable log.
  cluster_->DeleteBackup(id);
  RecordVmsInUse();
}

[[nodiscard]] Status Membership::KillVm(VmId vm) {
  auto it = vm_to_instance_.find(vm);
  SEEP_RETURN_IF_ERROR(cluster_->provider()->KillVm(vm));
  cluster_->transport()->DetachVm(vm);
  if (it != vm_to_instance_.end()) {
    OperatorInstance* inst = GetInstance(it->second);
    SEEP_CHECK(inst != nullptr);
    inst->MarkDead(cluster_->Now());
    if (auto* audit = cluster_->audit()) {
      audit->OnInstanceDead(inst->id());
    }
    // Checkpoints stored on this VM die with it (paper §4.3's backup(o)
    // failure case).
    cluster_->backups()->DropHeldBy(inst->id());
    SEEP_LOG(kInfo, cluster_->Now())
        << "VM " << vm << " failed; instance " << inst->id() << " of op '"
        << inst->spec().name << "' lost";
  }
  RecordVmsInUse();
  return Status::OK();
}

[[nodiscard]] Status Membership::KillOperator(OperatorId op) {
  const std::vector<InstanceId> live = LiveInstancesOf(op);
  if (live.empty()) return Status::NotFound("no live instance");
  const OperatorInstance* inst = GetInstance(live.front());
  return KillVm(inst->vm());
}

void Membership::RecordVmsInUse() {
  size_t in_use = 0;
  for (const auto& [id, inst] : instances_) {
    if (inst->alive() && !inst->stopped()) ++in_use;
  }
  cluster_->metrics()->vms_in_use.Add(cluster_->Now(),
                                      static_cast<double>(in_use));
}

}  // namespace seep::runtime
