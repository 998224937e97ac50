#include "control/scale_out_coordinator.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "control/reconfig_plan.h"
#include "runtime/operator_instance.h"

namespace seep::control {

std::function<void(Status)> ScaleOutCoordinator::FinishFn(
    OperatorId op, std::function<void(Status)> on_done) {
  return [this, op, on_done = std::move(on_done)](Status status) {
    in_progress_.erase(op);
    if (status.ok()) {
      ++completed_;
    } else {
      ++aborted_;
      SEEP_LOG(kInfo, cluster_->Now())
          << "scale out of op " << op << " aborted: " << status.ToString();
    }
    if (on_done) on_done(status);
  };
}

void ScaleOutCoordinator::ScaleOutInstance(InstanceId target, uint32_t pi,
                                           bool recovery,
                                           Callbacks callbacks) {
  runtime::OperatorInstance* t = cluster_->GetInstance(target);
  if (t == nullptr || pi == 0) {
    if (callbacks.on_done) {
      callbacks.on_done(Status::InvalidArgument("bad target or pi"));
    }
    return;
  }
  const OperatorId op = t->op();
  if (in_progress_.contains(op)) {
    if (callbacks.on_done) {
      callbacks.on_done(Status::Aborted("operation already in progress"));
    }
    return;
  }
  // A graceful scale out needs an existing backup to partition; abort early
  // and let the policy retry after the next checkpoint (paper §4.3). A
  // recovery can proceed regardless: without a backup, upstream buffers were
  // never trimmed and replay rebuilds the state from scratch.
  if (!recovery && !cluster_->backups()->Has(target)) {
    ++aborted_;
    if (callbacks.on_done) {
      callbacks.on_done(Status::Unavailable("no backup checkpoint yet"));
    }
    return;
  }
  in_progress_.insert(op);

  ReconfigPlan plan;
  plan.op = op;
  plan.label = recovery ? "recovery" : "scale-out";
  plan.ctx = std::make_shared<PlanContext>();
  plan.ctx->target = target;
  plan.ctx->pi = pi;
  plan.ctx->recovery = recovery;
  plan.ctx->balanced_split = config_.balanced_split;
  plan.ctx->control_delay = config_.control_delay;
  plan.ctx->on_restored = std::move(callbacks.on_restored);
  plan.ctx->on_caught_up = std::move(callbacks.on_caught_up);
  plan.stages = {
      QuiesceTargetStage(),
      AcquireVmsStage(pi, config_.control_delay, /*deadline=*/0),
      FetchAndPartitionStage(),
      ShipStage(config_.ship_deadline),
      HandoverStage(),
      RerouteStage(),
      SeedAcksAndReplayStage(),
      CommitScaleOutStage(),
  };
  executor_.Run(std::move(plan), FinishFn(op, std::move(callbacks.on_done)));
}

void ScaleOutCoordinator::ScaleIn(OperatorId op, Callbacks callbacks) {
  if (in_progress_.contains(op)) {
    if (callbacks.on_done) {
      callbacks.on_done(Status::Aborted("operation already in progress"));
    }
    return;
  }
  std::vector<InstanceId> live = cluster_->LiveInstancesOf(op);
  if (live.size() < 2) {
    if (callbacks.on_done) {
      callbacks.on_done(
          Status::FailedPrecondition("need >= 2 partitions to scale in"));
    }
    return;
  }
  // Pick two partitions with adjacent key ranges.
  std::sort(live.begin(), live.end(), [&](InstanceId a, InstanceId b) {
    return cluster_->GetInstance(a)->key_range().lo <
           cluster_->GetInstance(b)->key_range().lo;
  });
  InstanceId a_id = kInvalidInstance;
  InstanceId b_id = kInvalidInstance;
  for (size_t i = 1; i < live.size(); ++i) {
    const auto& prev = cluster_->GetInstance(live[i - 1])->key_range();
    const auto& cur = cluster_->GetInstance(live[i])->key_range();
    if (prev.hi != UINT64_MAX && prev.hi + 1 == cur.lo) {
      a_id = live[i - 1];
      b_id = live[i];
      break;
    }
  }
  if (a_id == kInvalidInstance) {
    if (callbacks.on_done) {
      callbacks.on_done(
          Status::FailedPrecondition("no adjacent partitions to merge"));
    }
    return;
  }
  in_progress_.insert(op);

  ReconfigPlan plan;
  plan.op = op;
  plan.label = "scale-in";
  plan.ctx = std::make_shared<PlanContext>();
  plan.ctx->merge_a = a_id;
  plan.ctx->merge_b = b_id;
  plan.ctx->control_delay = config_.control_delay;
  plan.ctx->on_restored = std::move(callbacks.on_restored);
  plan.ctx->on_caught_up = std::move(callbacks.on_caught_up);
  plan.stages = {
      QuiesceAndDrainStage(config_.drain_deadline),
      MergeStage(),
      AcquireVmsStage(1, /*pre_delay=*/0, /*deadline=*/0),
      DeployMergedStage(),
      RerouteMergedStage(),
      SeedAcksAndReplayMergedStage(),
      CommitScaleInStage(),
  };
  executor_.Run(std::move(plan), FinishFn(op, std::move(callbacks.on_done)));
}

}  // namespace seep::control
