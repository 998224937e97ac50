#ifndef SEEP_CLOUD_VM_POOL_H_
#define SEEP_CLOUD_VM_POOL_H_

#include <deque>
#include <functional>

#include "cloud/cloud_provider.h"
#include "common/stats.h"
#include "sim/simulation.h"

namespace seep::cloud {

/// VM pool parameters (paper §5.2).
struct VmPoolConfig {
  /// Target pool size p. The pool is pre-filled to p at startup and refilled
  /// asynchronously after each grant.
  size_t target_size = 2;
  /// Time to hand a pooled VM to the SPS ("can happen in seconds").
  SimTime grant_delay = SecondsToSim(2);
  /// Minimum spacing between successive grants: the pool manager configures
  /// VMs one at a time, so acquiring k VMs at once (parallel recovery,
  /// simultaneous scale-outs) pipelines rather than completing in parallel.
  SimTime grant_pipeline = MillisToSim(500);
};

/// Pre-allocated pool of booted VMs that decouples "the SPS needs a VM now"
/// from minute-scale IaaS provisioning. When the pool is exhausted, requests
/// queue until the asynchronous refill delivers — the resulting stall is
/// exactly what the pool-size ablation bench measures.
class VmPool {
 public:
  using VmGrant = CloudProvider::VmGrant;

  VmPool(sim::Simulation* sim, CloudProvider* provider, VmPoolConfig config);

  /// Pre-fills synchronously with immediately provisioned VMs, for initial
  /// deployments that happen before the measured run.
  void PrefillImmediate();

  /// Requests a VM. Granted after `grant_delay` if a pooled VM is available,
  /// otherwise queued until provisioning completes.
  void Acquire(VmGrant on_ready);

  /// Adjusts the target size at runtime (paper: shrink after aggressive
  /// scale-out phases). Shrinking releases surplus pooled VMs.
  void SetTargetSize(size_t target);

  size_t available() const { return pooled_.size(); }
  size_t pending_requests() const { return waiting_.size(); }
  size_t target_size() const { return config_.target_size; }

  /// Time each Acquire spent waiting before its VM was granted; the pool's
  /// effectiveness metric (seconds, one sample per grant).
  const SampleDistribution& wait_times() const { return wait_times_; }

 private:
  void Refill();
  void TryGrant();

  sim::Simulation* sim_;
  CloudProvider* provider_;
  VmPoolConfig config_;
  std::deque<VmId> pooled_;
  struct Waiter {
    SimTime since;
    VmGrant grant;
  };
  std::deque<Waiter> waiting_;
  size_t inflight_refills_ = 0;
  SimTime next_grant_at_ = 0;
  SampleDistribution wait_times_;
};

}  // namespace seep::cloud

#endif  // SEEP_CLOUD_VM_POOL_H_
