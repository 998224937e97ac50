#include "control/recovery_coordinator.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "control/reconfig_plan.h"
#include "runtime/operator_instance.h"

namespace seep::control {

void RecoveryCoordinator::Start() {
  if (!detector_config_.enabled) return;
  cluster_->simulation()->Schedule(detector_config_.heartbeat_interval,
                                   [this]() {
                                     Poll();
                                     Start();
                                   });
}

void RecoveryCoordinator::Poll() {
  for (const auto& [id, inst] : cluster_->instances()) {
    if (inst->alive() || inst->stopped() || handled_.contains(id)) continue;
    // Only current members of an operator need recovery; retired tombstones
    // were already replaced.
    const auto members = cluster_->InstancesOf(inst->op());
    if (std::find(members.begin(), members.end(), id) == members.end()) {
      continue;
    }
    if (++missed_[id] < detector_config_.missed_heartbeats) continue;
    handled_.insert(id);
    Recover(id);
  }
}

void RecoveryCoordinator::Recover(InstanceId failed) {
  runtime::OperatorInstance* inst = cluster_->GetInstance(failed);
  if (inst == nullptr || inst->alive()) return;
  handled_.insert(failed);

  runtime::RecoveryEvent event;
  event.op = inst->op();
  event.failed_instance = failed;
  event.failed_at = inst->died_at();
  event.detected_at = cluster_->Now();
  event.parallelism = recovery_config_.parallelism;
  cluster_->metrics()->recoveries.push_back(event);
  const size_t index = cluster_->metrics()->recoveries.size() - 1;

  SEEP_LOG(kInfo, cluster_->Now())
      << "recovering instance " << failed << " of op '"
      << inst->spec().name << "'";

  switch (cluster_->config().ft_mode) {
    case runtime::FaultToleranceMode::kStateManagement:
      RecoverStateManagement(failed, index);
      break;
    case runtime::FaultToleranceMode::kUpstreamBackup:
      RecoverReplayBased(failed, index, /*source_replay=*/false);
      break;
    case runtime::FaultToleranceMode::kSourceReplay:
      RecoverReplayBased(failed, index, /*source_replay=*/true);
      break;
    case runtime::FaultToleranceMode::kNone:
      break;  // no recovery; the query stays degraded
  }
}

void RecoveryCoordinator::RecoverStateManagement(InstanceId failed,
                                                 size_t event_index) {
  // The paper's integrated path: recovery IS scale-out, at parallelism 1
  // (serial) or >= 2 (parallel recovery).
  ScaleOutCoordinator::Callbacks callbacks;
  auto* metrics = cluster_->metrics();
  callbacks.on_restored = [metrics, event_index](SimTime at) {
    metrics->recoveries[event_index].restored_at = at;
  };
  callbacks.on_caught_up = [metrics, event_index](SimTime at) {
    metrics->recoveries[event_index].caught_up_at = at;
  };
  callbacks.on_done = [this, failed, event_index](Status status) {
    if (status.ok()) return;
    // Abort (e.g. another operation in flight, or the backup holder also
    // failed): retry shortly, per the paper's §4.3 discussion. The plan's
    // compensations already rolled the cluster back to a clean state.
    cluster_->simulation()->Schedule(SecondsToSim(1), [this, failed,
                                                       event_index]() {
      RecoverStateManagement(failed, event_index);
    });
  };
  coordinator_->ScaleOutInstance(failed, recovery_config_.parallelism,
                                 /*recovery=*/true, std::move(callbacks));
}

void RecoveryCoordinator::RecoverReplayBased(InstanceId failed,
                                             size_t event_index,
                                             bool source_replay) {
  // The replay-based baselines (Fig. 11) share one plan shape: deploy a
  // replacement with the dead instance's key range, retire the corpse,
  // reroute, then rebuild state by replay — from every upstream buffer
  // (upstream backup) or from the sources' full history (source replay).
  runtime::OperatorInstance* dead = cluster_->GetInstance(failed);
  auto* metrics = cluster_->metrics();

  ReconfigPlan plan;
  plan.op = dead->op();
  plan.label = source_replay ? "source-replay-recovery"
                             : "upstream-backup-recovery";
  plan.ctx = std::make_shared<PlanContext>();
  plan.ctx->target = failed;
  plan.ctx->recovery = true;
  plan.ctx->replacement_range = dead->key_range();
  plan.ctx->on_restored = [metrics, event_index](SimTime at) {
    metrics->recoveries[event_index].restored_at = at;
  };
  plan.ctx->on_caught_up = [metrics, event_index](SimTime at) {
    metrics->recoveries[event_index].caught_up_at = at;
  };
  plan.stages = {
      AcquireVmsStage(1, /*pre_delay=*/0, /*deadline=*/0),
      DeployReplacementStage(),
      RerouteRetireFailedStage(),
      source_replay ? SourceReplayStage() : ReplayUpstreamBuffersStage(),
      CommitRecoveryStage(),
  };
  coordinator_->executor()->Run(
      std::move(plan), [this, failed, event_index,
                        source_replay](Status status) {
        if (status.ok()) return;
        // Refused (another plan owns the operator) or compensated: retry
        // once the conflicting reconfiguration finished.
        cluster_->simulation()->Schedule(
            SecondsToSim(1), [this, failed, event_index, source_replay]() {
              RecoverReplayBased(failed, event_index, source_replay);
            });
      });
}

}  // namespace seep::control
