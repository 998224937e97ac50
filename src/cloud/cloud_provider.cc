#include "cloud/cloud_provider.h"

#include <algorithm>

#include "common/macros.h"

namespace seep::cloud {

void CloudProvider::RequestVm(VmGrant on_ready) {
  const VmId id = next_id_++;
  Vm vm;
  vm.id = id;
  vm.capacity = config_.vm_capacity;
  vm.state = VmState::kProvisioning;
  vm.requested_at = sim_->Now();
  vms_.emplace(id, vm);
  ++num_live_;

  const double jitter =
      1.0 + config_.provision_jitter * (2.0 * rng_.NextDouble() - 1.0);
  const SimTime delay = std::max<SimTime>(
      0, static_cast<SimTime>(
             static_cast<double>(config_.provision_delay_mean) * jitter));
  sim_->Schedule(delay, [this, id, cb = std::move(on_ready)]() {
    Vm* vm = GetMutableVm(id);
    SEEP_CHECK(vm != nullptr);
    if (vm->state != VmState::kProvisioning) return;  // killed while booting
    vm->state = VmState::kPooled;
    vm->booted_at = sim_->Now();
    cb(id);
  });
}

VmId CloudProvider::RequestVmImmediate() {
  const VmId id = next_id_++;
  Vm vm;
  vm.id = id;
  vm.capacity = config_.vm_capacity;
  vm.state = VmState::kPooled;
  vm.requested_at = sim_->Now();
  vm.booted_at = sim_->Now();
  vms_.emplace(id, vm);
  ++num_live_;
  return id;
}

[[nodiscard]] seep::Status CloudProvider::KillVm(VmId id) {
  Vm* vm = GetMutableVm(id);
  if (vm == nullptr) return seep::Status::NotFound("unknown VM");
  if (vm->state == VmState::kFailed || vm->state == VmState::kReleased) {
    return seep::Status::FailedPrecondition("VM already terminated");
  }
  vm->state = VmState::kFailed;
  vm->released_at = sim_->Now();
  --num_live_;
  return seep::Status::OK();
}

[[nodiscard]] seep::Status CloudProvider::ReleaseVm(VmId id) {
  Vm* vm = GetMutableVm(id);
  if (vm == nullptr) return seep::Status::NotFound("unknown VM");
  if (vm->state == VmState::kFailed || vm->state == VmState::kReleased) {
    return seep::Status::FailedPrecondition("VM already terminated");
  }
  vm->state = VmState::kReleased;
  vm->released_at = sim_->Now();
  --num_live_;
  return seep::Status::OK();
}

void CloudProvider::ReleaseVmCompensating(VmId id) {
  const seep::Status st = ReleaseVm(id);
  SEEP_CHECK(st.ok() ||
             st.code() == seep::StatusCode::kFailedPrecondition);
}

[[nodiscard]] seep::Status CloudProvider::MarkInUse(VmId id) {
  Vm* vm = GetMutableVm(id);
  if (vm == nullptr) return seep::Status::NotFound("unknown VM");
  if (vm->state != VmState::kPooled) {
    return seep::Status::FailedPrecondition("VM not pooled");
  }
  vm->state = VmState::kInUse;
  return seep::Status::OK();
}

const Vm* CloudProvider::GetVm(VmId id) const {
  auto it = vms_.find(id);
  return it == vms_.end() ? nullptr : &it->second;
}

Vm* CloudProvider::GetMutableVm(VmId id) {
  auto it = vms_.find(id);
  return it == vms_.end() ? nullptr : &it->second;
}

double CloudProvider::BilledVmSeconds() const {
  double total = 0;
  for (const auto& [id, vm] : vms_) {
    const SimTime end = (vm.state == VmState::kFailed ||
                         vm.state == VmState::kReleased)
                            ? vm.released_at
                            : sim_->Now();
    total += SimToSeconds(end - vm.requested_at);
  }
  return total;
}

}  // namespace seep::cloud
