#ifndef SEEP_SIM_SIMULATION_H_
#define SEEP_SIM_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/macros.h"
#include "common/sync.h"
#include "common/time.h"

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
  /// The thread that constructs a Simulation is its driver thread: it (and
  /// only it) runs events and the protocol code they reach. Adoption is
  /// idempotent and deliberately permanent — tests and benches create many
  /// simulations from one harness thread, and that thread stays the driver.
  Simulation() { sync::DriverThread.Adopt(); }
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime Now() const { return now_; }

  /// Schedules `fn` to run at Now() + delay (delay >= 0).
  void Schedule(SimTime delay, std::function<void()> fn) {
    SEEP_CHECK_GE(delay, 0);
    ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at an absolute time >= Now().
  void ScheduleAt(SimTime at, std::function<void()> fn) {
    SEEP_CHECK_GE(at, now_);
    queue_.push(Event{at, ++next_id_, std::move(fn)});
  }

  /// Runs events until the queue is empty or `until` is reached (whichever is
  /// first); Now() advances to `until` even if the queue drains early.
  void RunUntil(SimTime until);

  /// Runs all pending events to quiescence.
  void RunAll();

  size_t pending_events() const { return queue_.size(); }
  uint64_t executed_events() const { return executed_; }

 private:
  struct Event {
    SimTime time;
    EventId id;
    mutable std::function<void()> fn;  // moved out when the event fires
    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return id > other.id;
    }
  };

  bool FireNext();

  SimTime now_ = 0;
  EventId next_id_ = 0;
  uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
};

}  // namespace seep::sim

#endif  // SEEP_SIM_SIMULATION_H_
