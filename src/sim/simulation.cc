#include "sim/simulation.h"

namespace seep::sim {

bool Simulation::FireNext() {
  if (queue_.empty()) return false;
  const Event& top = queue_.top();
  SEEP_CHECK_GE(top.time, now_);
  now_ = top.time;
  std::function<void()> fn = std::move(top.fn);
  queue_.pop();
  ++executed_;
  fn();
  return true;
}

void Simulation::RunUntil(SimTime until) {
  SEEP_CHECK_GE(until, now_);
  while (!queue_.empty() && queue_.top().time <= until) FireNext();
  now_ = until;
}

void Simulation::RunAll() {
  while (FireNext()) {
  }
}

}  // namespace seep::sim
