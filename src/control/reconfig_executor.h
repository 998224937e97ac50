#ifndef SEEP_CONTROL_RECONFIG_EXECUTOR_H_
#define SEEP_CONTROL_RECONFIG_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/status.h"
#include "control/reconfig_plan.h"
#include "runtime/cluster.h"
#include "runtime/metrics.h"

namespace seep::control {

/// Runs ReconfigPlans: stages execute in order, each under its optional
/// deadline; on any stage failure or timeout the executor runs the
/// compensations of the failed stage and every completed stage in reverse
/// order, then reports the (retryable) failure. Stage transitions are
/// synchronous — when a stage completes, the next stage's forward action
/// runs in the same simulation event, so a plan adds no scheduling points
/// beyond the ones its stages explicitly take (the refactor is
/// behavior-preserving on fault-free runs).
///
/// The executor admits at most one plan per operator at a time (a second
/// plan is refused with a retryable Aborted status), records per-stage
/// timing into MetricsRegistry::reconfig_plans, and reports the plan
/// lifecycle to the InvariantAuditor (one-plan-per-operator, no-leaked-vm,
/// checkpoints-resumed-after-abort, routes-restored-on-abort).
class ReconfigExecutor {
 public:
  explicit ReconfigExecutor(runtime::Cluster* cluster) : cluster_(cluster) {}

  ReconfigExecutor(const ReconfigExecutor&) = delete;
  ReconfigExecutor& operator=(const ReconfigExecutor&) = delete;

  /// Starts `plan`. `on_done` fires exactly once: OK after the commit stage,
  /// or the failing stage's status after all compensations ran.
  void Run(ReconfigPlan plan, std::function<void(Status)> on_done);

  /// True while a plan for `op` is running.
  bool InProgress(OperatorId op) const { return active_ops_.contains(op); }

  size_t committed_plans() const { return committed_; }
  size_t aborted_plans() const { return aborted_; }

 private:
  struct RunState {
    std::shared_ptr<PlanContext> ctx;
    std::vector<ReconfigStage> stages;
    std::function<void(Status)> on_done;
    size_t stage = 0;
    /// Bumped at each stage start; a deadline timer or late completion
    /// carrying a stale epoch is ignored.
    uint64_t epoch = 0;
    SimTime stage_started = 0;
    runtime::ReconfigPlanEvent event;
  };

  void StartStage(uint64_t plan_id);
  void CompleteStage(uint64_t plan_id, uint64_t epoch, Status status);
  void Abort(uint64_t plan_id, Status status);
  void Finish(uint64_t plan_id, Status status, bool aborted);

  runtime::Cluster* cluster_;
  uint64_t next_plan_id_ = 1;
  std::map<uint64_t, RunState> runs_;
  std::set<OperatorId> active_ops_;
  size_t committed_ = 0;
  size_t aborted_ = 0;
};

}  // namespace seep::control

#endif  // SEEP_CONTROL_RECONFIG_EXECUTOR_H_
