#include "sim/simulation.h"

#include <algorithm>

namespace seep::sim {

void Simulation::ScheduleAt(SimTime at, Task fn) {
  SEEP_CHECK_GE(at, now_);
  auto slot = static_cast<uint32_t>(tasks_.size());
  if (free_slots_.empty()) {
    tasks_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    tasks_[slot] = std::move(fn);
  }
  heap_.push_back(Event{at, ++next_id_, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool Simulation::FireNext() {
  if (heap_.empty()) return false;
  const Event top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  SEEP_CHECK_GE(top.time, now_);
  now_ = top.time;
  // Moved out first: the task may schedule events and so grow tasks_.
  Task fn = std::move(tasks_[top.slot]);
  free_slots_.push_back(top.slot);
  ++executed_;
  fn();
  return true;
}

void Simulation::RunUntil(SimTime until) {
  SEEP_CHECK_GE(until, now_);
  while (!heap_.empty() && heap_.front().time <= until) FireNext();
  now_ = until;
}

void Simulation::RunAll() {
  while (FireNext()) {
  }
}

}  // namespace seep::sim
