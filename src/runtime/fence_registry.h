#ifndef SEEP_RUNTIME_FENCE_REGISTRY_H_
#define SEEP_RUNTIME_FENCE_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>

#include "common/ids.h"
#include "common/time.h"

namespace seep::runtime {

class Cluster;
class OperatorInstance;

/// Replay fences: markers sent after replayed tuples on the same FIFO links,
/// whose arrival at the target instances proves the replay has drained.
/// Fences that reach a non-target instance are forwarded to every live
/// downstream instance, so they traverse intermediate operators
/// (source-replay recovery).
class FenceRegistry {
 public:
  explicit FenceRegistry(Cluster* cluster) : cluster_(cluster) {}

  FenceRegistry(const FenceRegistry&) = delete;
  FenceRegistry& operator=(const FenceRegistry&) = delete;

  /// Registers a replay fence: `expected` fence deliveries at instances in
  /// `targets` complete the fence and invoke `on_complete(now)`.
  uint64_t Register(int expected, std::set<InstanceId> targets,
                    std::function<void(SimTime)> on_complete);

  /// A fence marker reached instance `at` (called when its batch-job
  /// finishes, i.e. after all earlier queued work).
  void Handle(uint64_t fence_id, OperatorInstance* at);

 private:
  struct Fence {
    std::set<InstanceId> targets;
    int remaining = 0;
    std::function<void(SimTime)> on_complete;
  };

  Cluster* cluster_;
  uint64_t counter_ = 0;
  std::map<uint64_t, Fence> fences_;
};

}  // namespace seep::runtime

#endif  // SEEP_RUNTIME_FENCE_REGISTRY_H_
