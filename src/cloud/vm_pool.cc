#include "cloud/vm_pool.h"

#include <utility>

#include "common/macros.h"

namespace seep::cloud {

VmPool::VmPool(sim::Simulation* sim, CloudProvider* provider,
               VmPoolConfig config)
    : sim_(sim), provider_(provider), config_(config) {}

void VmPool::PrefillImmediate() {
  while (pooled_.size() < config_.target_size) {
    pooled_.push_back(provider_->RequestVmImmediate());
  }
}

void VmPool::Acquire(VmGrant on_ready) {
  waiting_.push_back({sim_->Now(), std::move(on_ready)});
  TryGrant();
  Refill();
}

void VmPool::SetTargetSize(size_t target) {
  config_.target_size = target;
  while (pooled_.size() > target) {
    const VmId id = pooled_.back();
    pooled_.pop_back();
    SEEP_CHECK(provider_->ReleaseVm(id).ok());
  }
  Refill();
}

void VmPool::Refill() {
  // Keep (pooled + in-flight provisioning - queued waiters) at target size.
  const size_t demand = config_.target_size + waiting_.size();
  while (pooled_.size() + inflight_refills_ < demand) {
    ++inflight_refills_;
    provider_->RequestVm([this](VmId id) {
      SEEP_CHECK_GT(inflight_refills_, 0u);
      --inflight_refills_;
      pooled_.push_back(id);
      TryGrant();
    });
  }
}

void VmPool::TryGrant() {
  while (!waiting_.empty() && !pooled_.empty()) {
    const VmId id = pooled_.front();
    pooled_.pop_front();
    Waiter waiter = std::move(waiting_.front());
    waiting_.pop_front();
    const SimTime now = sim_->Now();
    const SimTime grant_at =
        std::max(now + config_.grant_delay,
                 next_grant_at_ + config_.grant_pipeline);
    next_grant_at_ = grant_at;
    sim_->ScheduleAt(
        grant_at,
        [this, id, since = waiter.since, grant = std::move(waiter.grant)]() {
          wait_times_.Add(SimToSeconds(sim_->Now() - since));
          SEEP_CHECK(provider_->MarkInUse(id).ok());
          grant(id);
        });
  }
}

}  // namespace seep::cloud
