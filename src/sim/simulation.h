#ifndef SEEP_SIM_SIMULATION_H_
#define SEEP_SIM_SIMULATION_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/time.h"
#include "sim/task.h"

namespace seep::sim {

/// Insertion sequence of a scheduled event: the tie-break between events at
/// the same time. Value 0 is never issued.
using EventId = uint64_t;

/// Deterministic discrete-event executor. Events fire in (time, insertion
/// sequence) order, so two runs that schedule identically behave identically.
/// This is the substrate that replaces the paper's EC2 deployment: simulated
/// VMs, network links and coordinators all schedule their work here.
class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime Now() const { return now_; }

  /// Schedules `fn` to run at Now() + delay (delay >= 0).
  void Schedule(SimTime delay, Task fn) {
    SEEP_CHECK_GE(delay, 0);
    ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at an absolute time >= Now().
  void ScheduleAt(SimTime at, Task fn);

  /// Runs events until the queue is empty or `until` is reached (whichever is
  /// first); Now() advances to `until` even if the queue drains early.
  void RunUntil(SimTime until);

  /// Runs all pending events to quiescence.
  void RunAll();

  size_t pending_events() const { return heap_.size(); }
  uint64_t executed_events() const { return executed_; }

 private:
  // The heap orders small entries; each names the slot of `tasks_` that
  // holds its closure. A fired event's slot goes on the free list.
  struct Event {
    SimTime time;
    EventId id;
    uint32_t slot;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  bool FireNext();

  SimTime now_ = 0;
  EventId next_id_ = 0;
  uint64_t executed_ = 0;
  std::vector<Event> heap_;  // a min-heap under Later
  std::vector<Task> tasks_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace seep::sim

#endif  // SEEP_SIM_SIMULATION_H_
