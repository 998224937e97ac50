#ifndef SEEP_RUNTIME_EMISSION_ROUTER_H_
#define SEEP_RUNTIME_EMISSION_ROUTER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "core/state.h"
#include "core/tuple.h"

namespace seep::runtime {

class Cluster;
class OperatorInstance;
class TrimTracker;

/// The outbound half of one operator instance: stamps emissions with the
/// instance's origin and monotone output clock, appends them to the replay
/// buffer where required, routes them by key and ships per-destination
/// batches through the Transport. Also owns catch-up suppression (paper
/// §3.2): while re-processing replayed tuples the stopped parent already
/// delivered, state is updated but emissions are dropped.
class EmissionRouter {
 public:
  EmissionRouter(Cluster* cluster, OperatorInstance* instance,
                 TrimTracker* trims);

  /// Routes and ships one invocation's emissions. `suppressed` (parallel to
  /// `emissions`, may be null) flags outputs of replayed inputs that the
  /// stopped parent already delivered downstream.
  void Flush(std::vector<std::pair<int, core::Tuple>>* emissions,
             const std::vector<bool>* suppressed);

  void SetSuppressUntil(core::InputPositions positions);

  /// Whether an input tuple's outputs must be suppressed (its timestamp is
  /// at or below the suppression position of its origin).
  bool ShouldSuppress(core::OriginId origin, int64_t timestamp) const {
    return suppressing_ && timestamp <= suppress_until_.Get(origin);
  }

  /// Whether this instance keeps a replay buffer for `down_op` under the
  /// configured fault-tolerance mode.
  bool BuffersTo(OperatorId down_op) const;

  int64_t out_clock() const { return out_clock_; }
  void set_out_clock(int64_t clock) { out_clock_ = clock; }

  /// Clears the output clock and suppression state (ResetEmpty).
  void Reset();

 private:
  Cluster* cluster_;
  OperatorInstance* inst_;
  TrimTracker* trims_;

  int64_t out_clock_ = 0;
  core::InputPositions suppress_until_;
  bool suppressing_ = false;
  std::vector<OperatorId> downstream_ops_;  // port order (graph edge order)

  // Flush's scratch, reused across flushes: each emission's destination
  // (kInvalidInstance when suppressed or unrouted), and the number of
  // tuples per destination.
  std::vector<InstanceId> dests_;
  std::vector<std::pair<InstanceId, size_t>> fanout_;
};

}  // namespace seep::runtime

#endif  // SEEP_RUNTIME_EMISSION_ROUTER_H_
