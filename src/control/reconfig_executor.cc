#include "control/reconfig_executor.h"

#include <string>
#include <utility>

#include "common/logging.h"
#include "verify/invariant_auditor.h"

namespace seep::control {

void ReconfigExecutor::Run(ReconfigPlan plan,
                           std::function<void(Status)> on_done) {
  SEEP_CHECK(plan.ctx != nullptr);
  SEEP_CHECK(!plan.stages.empty());
  if (active_ops_.contains(plan.op)) {
    if (on_done) on_done(Status::Aborted("operation already in progress"));
    return;
  }
  const uint64_t plan_id = next_plan_id_++;
  plan.ctx->cluster = cluster_;
  plan.ctx->plan_id = plan_id;
  plan.ctx->op = plan.op;
  active_ops_.insert(plan.op);

  RunState run;
  run.ctx = plan.ctx;
  run.stages = std::move(plan.stages);
  run.on_done = std::move(on_done);
  run.event.plan_id = plan_id;
  run.event.op = plan.op;
  run.event.label = plan.label;
  run.event.started = cluster_->Now();
  runs_.emplace(plan_id, std::move(run));

  if (auto* audit = cluster_->audit()) {
    audit->OnPlanStarted(plan_id, plan.op);
  }
  StartStage(plan_id);
}

void ReconfigExecutor::StartStage(uint64_t plan_id) {
  auto it = runs_.find(plan_id);
  SEEP_CHECK(it != runs_.end());
  RunState& run = it->second;
  if (run.stage >= run.stages.size()) {
    Finish(plan_id, Status::OK(), /*aborted=*/false);
    return;
  }
  const ReconfigStage& stage = run.stages[run.stage];
  const uint64_t epoch = ++run.epoch;
  run.stage_started = cluster_->Now();
  if (stage.deadline > 0) {
    cluster_->simulation()->Schedule(stage.deadline, [this, plan_id, epoch]() {
      auto rit = runs_.find(plan_id);
      if (rit == runs_.end() || rit->second.epoch != epoch) return;
      const StageKind kind = rit->second.stages[rit->second.stage].kind;
      CompleteStage(plan_id, epoch,
                    Status::Unavailable(
                        std::string("reconfiguration stage '") +
                        StageKindName(kind) + "' exceeded its deadline"));
    });
  }
  // Copies: the forward action may complete the whole plan synchronously,
  // erasing the run (and with it `stage` and `run.ctx`) while still on this
  // stack frame.
  auto forward = stage.forward;
  auto ctx = run.ctx;
  SEEP_CHECK(forward != nullptr);
  forward(ctx, [this, plan_id, epoch](Status status) {
    CompleteStage(plan_id, epoch, std::move(status));
  });
}

void ReconfigExecutor::CompleteStage(uint64_t plan_id, uint64_t epoch,
                                     Status status) {
  auto it = runs_.find(plan_id);
  if (it == runs_.end() || it->second.epoch != epoch) return;  // stale
  RunState& run = it->second;
  runtime::ReconfigStageTiming timing;
  timing.stage = StageKindName(run.stages[run.stage].kind);
  timing.started = run.stage_started;
  timing.ended = cluster_->Now();
  run.event.stages.push_back(std::move(timing));
  if (!status.ok()) {
    Abort(plan_id, std::move(status));
    return;
  }
  ++run.stage;
  StartStage(plan_id);
}

void ReconfigExecutor::Abort(uint64_t plan_id, Status status) {
  RunState& run = runs_.at(plan_id);
  // In-flight continuations (pool grants, shipped-state deliveries, drain
  // polls) observe the dead context and resolve without effect; pending
  // deadline timers see a stale epoch.
  run.ctx->active = false;
  ++run.epoch;
  // Compensate the failed stage and every completed stage, in reverse.
  // Compensations are idempotent over partial forward progress, so the
  // failed stage's own partial work is undone too.
  for (size_t i = run.stage + 1; i-- > 0;) {
    if (run.stages[i].compensate) run.stages[i].compensate(*run.ctx);
  }
  Finish(plan_id, std::move(status), /*aborted=*/true);
}

void ReconfigExecutor::Finish(uint64_t plan_id, Status status, bool aborted) {
  auto it = runs_.find(plan_id);
  SEEP_CHECK(it != runs_.end());
  RunState& run = it->second;
  run.ctx->active = false;
  run.event.aborted = aborted;
  run.event.status = status.ToString();
  run.event.ended = cluster_->Now();
  cluster_->metrics()->reconfig_plans.push_back(std::move(run.event));
  if (auto* audit = cluster_->audit()) {
    audit->OnPlanFinished(plan_id, run.ctx->op, aborted);
  }
  if (aborted) {
    ++aborted_;
  } else {
    ++committed_;
  }
  active_ops_.erase(run.ctx->op);
  auto on_done = std::move(run.on_done);
  runs_.erase(it);
  if (on_done) on_done(std::move(status));
}

}  // namespace seep::control
