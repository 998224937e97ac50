#include "runtime/emission_router.h"

#include <algorithm>

#include "common/macros.h"
#include "runtime/cluster.h"
#include "runtime/operator_instance.h"
#include "runtime/trim_tracker.h"

namespace seep::runtime {

EmissionRouter::EmissionRouter(Cluster* cluster, OperatorInstance* instance,
                               TrimTracker* trims)
    : cluster_(cluster), inst_(instance), trims_(trims) {
  downstream_ops_ = cluster_->graph()->Downstream(inst_->op());
}

void EmissionRouter::Flush(
    std::vector<std::pair<int, core::Tuple>>* emissions,
    const std::vector<bool>* suppressed) {
  // Pass 1, in emission order: stamp, buffer and route each tuple, noting
  // its destination and counting the tuples bound for each.
  dests_.clear();
  fanout_.clear();
  for (size_t i = 0; i < emissions->size(); ++i) {
    auto& [port, tuple] = (*emissions)[i];
    SEEP_CHECK_LT(static_cast<size_t>(port), downstream_ops_.size());
    const OperatorId down = downstream_ops_[static_cast<size_t>(port)];
    tuple.timestamp = ++out_clock_;
    tuple.origin = inst_->origin();
    InstanceId dest = kInvalidInstance;
    // Suppressed emissions rebuild state only; the stopped parent already
    // delivered (and buffered through its checkpoint) these outputs.
    if (suppressed == nullptr || !(*suppressed)[i]) {
      if (BuffersTo(down)) inst_->buffer_state().Append(down, tuple);
      dest = cluster_->routing()->RouteKey(down, tuple.key);
    }
    dests_.push_back(dest);
    if (dest == kInvalidInstance) continue;
    trims_->NoteSent(down, dest, tuple.timestamp);
    auto it = std::find_if(fanout_.begin(), fanout_.end(),
                           [dest](const auto& f) { return f.first == dest; });
    if (it == fanout_.end()) {
      fanout_.emplace_back(dest, 1);
    } else {
      ++it->second;
    }
  }
  // Batches go out in ascending destination order (the order the sim's
  // events, and so every figure, depend on), each sized exactly.
  std::sort(fanout_.begin(), fanout_.end());
  std::vector<core::TupleBatch> batches(fanout_.size());
  for (size_t b = 0; b < fanout_.size(); ++b) {
    batches[b].tuples.reserve(fanout_[b].second);
  }
  // Pass 2: move each routed tuple into its batch, in emission order.
  for (size_t i = 0; i < emissions->size(); ++i) {
    if (dests_[i] == kInvalidInstance) continue;
    const auto it = std::lower_bound(
        fanout_.begin(), fanout_.end(), dests_[i],
        [](const auto& f, InstanceId dest) { return f.first < dest; });
    batches[static_cast<size_t>(it - fanout_.begin())].tuples.push_back(
        std::move((*emissions)[i].second));
  }
  bool pressured = false;
  for (size_t b = 0; b < fanout_.size(); ++b) {
    if (cluster_->transport()->SendBatch(inst_, fanout_[b].first,
                                         std::move(batches[b])) ==
        SendPressure::kPressured) {
      pressured = true;
    }
  }
  if (pressured) inst_->OnSendPressure();
}

void EmissionRouter::SetSuppressUntil(core::InputPositions positions) {
  suppress_until_ = std::move(positions);
  suppressing_ = true;
}

bool EmissionRouter::BuffersTo(OperatorId down_op) const {
  const core::OperatorSpec* down = cluster_->graph()->Get(down_op);
  // Sinks are assumed reliable (paper §2.2), so no replay buffer is needed
  // for them. In source-replay mode only sources keep buffers.
  if (down->kind == core::VertexKind::kSink) return false;
  if (cluster_->config().ft_mode == FaultToleranceMode::kSourceReplay) {
    return inst_->spec().kind == core::VertexKind::kSource;
  }
  return true;
}

void EmissionRouter::Reset() {
  out_clock_ = 0;
  suppress_until_ = core::InputPositions();
  suppressing_ = false;
}

}  // namespace seep::runtime
