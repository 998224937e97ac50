#include "control/reconfig_plan.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/logging.h"
#include "core/state_ops.h"
#include "runtime/operator_instance.h"
#include "verify/invariant_auditor.h"

namespace seep::control {

const char* StageKindName(StageKind kind) {
  switch (kind) {
    case StageKind::kQuiesce:
      return "quiesce";
    case StageKind::kAcquireVms:
      return "acquire-vms";
    case StageKind::kFetchAndPartition:
      return "fetch-and-partition";
    case StageKind::kMerge:
      return "merge";
    case StageKind::kShip:
      return "ship";
    case StageKind::kRestore:
      return "restore";
    case StageKind::kReroute:
      return "reroute";
    case StageKind::kSeedAcksAndReplay:
      return "seed-acks-and-replay";
    case StageKind::kCommit:
      return "commit";
  }
  return "unknown";
}

namespace {

/// Time to serialise/partition `bytes` of checkpoint state on a node.
SimTime StateProcessingDelay(const runtime::Cluster* cluster, size_t bytes) {
  const double us = static_cast<double>(bytes) / 1024.0 *
                    cluster->config().serialize_cost_us_per_kb;
  return static_cast<SimTime>(us);
}

void NotePlanVmAcquired(PlanContext& ctx, VmId vm) {
  if (auto* audit = ctx.cluster->audit()) {
    audit->OnPlanVmAcquired(ctx.plan_id, vm);
  }
}

void NotePlanVmDisposed(PlanContext& ctx, VmId vm) {
  if (auto* audit = ctx.cluster->audit()) {
    audit->OnPlanVmDisposed(ctx.plan_id, vm);
  }
}

void SuspendCheckpoints(PlanContext& ctx, InstanceId id) {
  runtime::OperatorInstance* inst = ctx.cluster->GetInstance(id);
  SEEP_CHECK(inst != nullptr);
  inst->SuspendCheckpoints();
  ctx.suspended.push_back(id);
  if (auto* audit = ctx.cluster->audit()) {
    audit->OnPlanSuspendedCheckpoints(ctx.plan_id, id);
  }
}

/// Resumes every checkpoint schedule the plan froze, on instances that can
/// still checkpoint. A dead partition is exempt (it cannot checkpoint; its
/// replacement starts a fresh schedule) — but a *surviving* partition left
/// suspended would never back up again, which is exactly the scale-in abort
/// bug the checkpoints-resumed-after-abort invariant guards against.
void ResumeSuspended(PlanContext& ctx) {
  for (InstanceId id : ctx.suspended) {
    runtime::OperatorInstance* inst = ctx.cluster->GetInstance(id);
    if (inst != nullptr && inst->alive() && !inst->stopped()) {
      inst->ResumeCheckpoints();
    }
  }
  ctx.suspended.clear();
}

/// Rebuilds `op`'s routing table from the current membership (surviving
/// partitions + the plan's deployments) and installs it through the
/// Cluster::InstallRoutes choke point — the single shared reroute used by
/// every plan (scale out, scale in, all recovery modes).
void InstallCurrentRoutes(PlanContext& ctx) {
  std::vector<core::RoutingState::Route> routes;
  for (InstanceId id : ctx.cluster->InstancesOf(ctx.op)) {
    routes.push_back({ctx.cluster->GetInstance(id)->key_range(), id});
  }
  ctx.cluster->InstallRoutes(ctx.op, std::move(routes));
}

/// Undoes deployments that never became part of the committed membership:
/// stop + finalize immediately (no handover happened, so nothing depends on
/// a tombstone's frozen acks) and release the VM. Safe on instances whose VM
/// died mid-plan (ReleaseVm on a terminated VM is a rejected no-op) and on
/// partially restored/started instances.
void RetireDeployed(PlanContext& ctx) {
  for (InstanceId id : ctx.new_ids) {
    ctx.cluster->membership()->RetireInstance(id, /*release_vm=*/true);
  }
  ctx.new_ids.clear();
}

void RequestVms(const std::shared_ptr<PlanContext>& ctx, uint32_t count,
                const StageDone& done) {
  for (uint32_t i = 0; i < count; ++i) {
    ctx->cluster->pool()->Acquire([ctx, count, done](VmId vm) {
      if (!ctx->active) {
        // The grant landed after the plan aborted (the pool has no cancel):
        // return the VM immediately so nothing leaks.
        ctx->cluster->provider()->ReleaseVmCompensating(vm);
        return;
      }
      NotePlanVmAcquired(*ctx, vm);
      ctx->vms.push_back(vm);
      if (ctx->vms.size() < count) return;
      done(Status::OK());
    });
  }
}

/// Restores `part` — a partition as it reached its deployed instance — and
/// starts the instance, then stores the partition as the new instance's
/// initial backup at the holder (Algorithm 2 line 8). Returns the store's
/// status: under kDisk a failed durable append leaves the new partition
/// with no recoverable backup, and the plan must abort (compensations
/// retire the partial deployment) rather than commit an unprotected
/// operator.
[[nodiscard]] Status RestoreOnePartition(PlanContext& ctx, InstanceId new_id,
                                         core::StateCheckpoint part) {
  runtime::OperatorInstance* inst = ctx.cluster->GetInstance(new_id);
  SEEP_CHECK(inst != nullptr);
  inst->Restore(part, ctx.inherit_origin);
  inst->Start();
  if (ctx.holder != kInvalidInstance) {
    part.instance = new_id;
    part.origin = inst->origin();
    const uint64_t initial_seq = part.seq;
    // Store before the audit hook: with a durable tier the log append
    // happens inside Store, and durable-log-covers-trim requires the record
    // to be on disk by the time the stored event fires.
    SEEP_RETURN_IF_ERROR(
        ctx.cluster->backups()->Store(new_id, ctx.holder, std::move(part)));
    if (auto* audit = ctx.cluster->audit()) {
      const runtime::OperatorInstance* h = ctx.cluster->GetInstance(ctx.holder);
      audit->OnCheckpointStored(new_id, inst->vm(), ctx.holder,
                                h != nullptr ? h->vm() : kInvalidVm,
                                initial_seq);
    }
  }
  return Status::OK();
}

/// Ships partition `i` from the holder to its new VM (after the holder spent
/// `partition_delay` splitting it), then restores the checkpoint that
/// arrived there. Without a backup (empty synthetic state) the restore is
/// immediate after a control delay.
void ShipOnePartition(const std::shared_ptr<PlanContext>& ctx, uint32_t i,
                      const std::shared_ptr<uint32_t>& remaining,
                      const StageDone& done) {
  const InstanceId new_id = ctx->new_ids[i];
  auto restore_one = [ctx, new_id, remaining,
                      done](core::StateCheckpoint part) {
    if (!ctx->active) return;  // aborted while the state was in flight
    const Status restored = RestoreOnePartition(*ctx, new_id, std::move(part));
    if (!restored.ok()) {
      // Aborting marks the context inactive, so sibling restores still
      // in flight become no-ops and done() fires exactly once (the
      // executor's epoch guard absorbs any stale completion).
      done(restored);
      return;
    }
    if (--(*remaining) == 0) done(Status::OK());
  };
  auto restore_local = [ctx, i, restore_one]() {
    restore_one((*ctx->parts)[i]);
  };
  if (ctx->have_backup && ctx->from_disk) {
    // The partition was read back from the durable log: nothing ships from
    // a holder (the new VM reads cluster storage directly); it still pays
    // the partition/deserialize delay.
    ctx->cluster->simulation()->Schedule(ctx->partition_delay,
                                         std::move(restore_local));
  } else if (ctx->have_backup) {
    const runtime::OperatorInstance* h = ctx->cluster->GetInstance(ctx->holder);
    const runtime::OperatorInstance* inst = ctx->cluster->GetInstance(new_id);
    ctx->cluster->simulation()->Schedule(
        ctx->partition_delay,
        [ctx, i, new_id, h_vm = h->vm(), i_vm = inst->vm(), restore_one]() {
          runtime::CheckpointParcel parcel{(*ctx->parts)[i], new_id,
                                           /*background=*/false};
          ctx->cluster->transport()->ShipCheckpoint(
              h_vm, i_vm, std::move(parcel),
              [restore_one](runtime::ArrivedCheckpoint arrived) {
                restore_one(std::move(arrived.ckpt));
              });
        });
  } else {
    ctx->cluster->simulation()->Schedule(ctx->control_delay,
                                         std::move(restore_local));
  }
}

/// Drain check: both merge partners idle on three consecutive 50 ms polls
/// (after an initial grace period longer than the network round trip).
void PollDrained(const std::shared_ptr<PlanContext>& ctx, int idle_polls,
                 const StageDone& done) {
  if (!ctx->active) return;
  runtime::OperatorInstance* a = ctx->cluster->GetInstance(ctx->merge_a);
  runtime::OperatorInstance* b = ctx->cluster->GetInstance(ctx->merge_b);
  if (a == nullptr || b == nullptr || !a->alive() || !b->alive()) {
    done(Status::Unavailable("partition died during scale-in"));
    return;
  }
  const bool idle = a->idle() && b->idle();
  const int next = idle ? idle_polls + 1 : 0;
  if (next < 3) {
    ctx->cluster->simulation()->Schedule(
        MillisToSim(50), [ctx, next, done]() { PollDrained(ctx, next, done); });
    return;
  }
  done(Status::OK());
}

/// Expected number of fence deliveries at the replacement when each source
/// instance fences its replay and intermediate instances forward fences to
/// every downstream instance. Fences multiply at each hop: outflow(u) is the
/// number of fences each downstream *instance* of u will receive from u's
/// side.
int ExpectedSourceFences(const runtime::Cluster* cluster,
                         OperatorId target_op) {
  const core::QueryGraph* graph = cluster->graph();
  std::map<OperatorId, int> outflow;
  for (OperatorId id : graph->TopologicalOrder()) {
    const core::OperatorSpec* spec = graph->Get(id);
    if (spec->kind == core::VertexKind::kSource) {
      outflow[id] = static_cast<int>(cluster->LiveInstancesOf(id).size());
      continue;
    }
    int arriving_per_instance = 0;
    for (OperatorId up : graph->Upstream(id)) {
      arriving_per_instance += outflow[up];
    }
    if (id == target_op) return arriving_per_instance;
    // Every instance of this operator forwards each fence it processes.
    outflow[id] = arriving_per_instance *
                  static_cast<int>(cluster->LiveInstancesOf(id).size());
  }
  return 0;
}

}  // namespace

ReconfigStage QuiesceTargetStage() {
  ReconfigStage stage;
  stage.kind = StageKind::kQuiesce;
  stage.forward = [](const std::shared_ptr<PlanContext>& ctx, StageDone done) {
    // Freeze the target's checkpoint schedule: a checkpoint completing while
    // we partition an older one would trim upstream buffers past the restore
    // point. (Recovery targets are dead and cannot checkpoint.)
    if (!ctx->recovery) SuspendCheckpoints(*ctx, ctx->target);
    done(Status::OK());
  };
  stage.compensate = [](PlanContext& ctx) { ResumeSuspended(ctx); };
  return stage;
}

ReconfigStage AcquireVmsStage(uint32_t count, SimTime pre_delay,
                              SimTime deadline) {
  ReconfigStage stage;
  stage.kind = StageKind::kAcquireVms;
  stage.deadline = deadline;
  stage.forward = [count, pre_delay](const std::shared_ptr<PlanContext>& ctx,
                                     StageDone done) {
    if (pre_delay > 0) {
      ctx->cluster->simulation()->Schedule(
          pre_delay,
          [ctx, count, done]() { RequestVms(ctx, count, done); });
    } else {
      RequestVms(ctx, count, done);
    }
  };
  stage.compensate = [](PlanContext& ctx) {
    for (VmId vm : ctx.vms) {
      // A VM that failed mid-plan is already terminated; any other
      // release failure is a billing leak and aborts in the helper.
      ctx.cluster->provider()->ReleaseVmCompensating(vm);
      NotePlanVmDisposed(ctx, vm);
    }
    ctx.vms.clear();
  };
  return stage;
}

ReconfigStage FetchAndPartitionStage() {
  ReconfigStage stage;
  stage.kind = StageKind::kFetchAndPartition;
  stage.forward = [](const std::shared_ptr<PlanContext>& ctx, StageDone done) {
    runtime::Cluster* cluster = ctx->cluster;
    ctx->partitions_before = cluster->InstancesOf(ctx->op).size();

    // A recovery can only finish if someone can replay the lost input: with
    // every upstream instance dead (a correlated failure), abort now — the
    // coordinator retries in 1 s, after the upstream's own recovery (which
    // needs no replay from this operator) has restored a live instance.
    if (ctx->recovery && !cluster->graph()->Upstream(ctx->op).empty() &&
        cluster->UpstreamInstancesOf(ctx->op).empty()) {
      done(Status::Unavailable("no live upstream instance to replay from"));
      return;
    }

    // Algorithm 3 lines 1-3: retrieve the most recent checkpoint from
    // backup(o) and partition it there. The holder must be alive (paper
    // §4.3: if backup(o) failed, abort and retry after a fresh backup
    // exists) — unless the checkpoint came off the durable log, which
    // survives the holder.
    auto entry = cluster->backups()->Retrieve(ctx->target);
    ctx->have_backup = entry.ok();
    if (ctx->have_backup) {
      ctx->base = entry.value().checkpoint;
      ctx->holder = entry.value().holder;
      ctx->from_disk = entry.value().from_disk;
      runtime::OperatorInstance* h = cluster->GetInstance(ctx->holder);
      const bool holder_live = h != nullptr && h->alive() && !h->stopped();
      if (ctx->from_disk) {
        // Durable-log fallback (kDisk, or kTiered after the holder died):
        // recovery proceeds through the correlated owner+holder failure the
        // in-memory tier cannot survive. A dead holder just means the new
        // partitions get no initial in-memory backup.
        if (!holder_live) ctx->holder = kInvalidInstance;
      } else if (!holder_live) {
        done(Status::Unavailable("backup holder failed"));
        return;
      }
    } else if (ctx->recovery) {
      runtime::OperatorInstance* t = cluster->GetInstance(ctx->target);
      SEEP_CHECK(t != nullptr);
      ctx->base.op = ctx->op;
      ctx->base.instance = ctx->target;
      ctx->base.key_range = t->key_range();
    } else {
      done(Status::Unavailable("backup disappeared"));
      return;
    }
    ctx->inherit_origin = ctx->recovery && ctx->pi == 1 && ctx->have_backup;

    auto parts_result =
        ctx->balanced_split
            ? core::PartitionCheckpointByRanges(
                  ctx->base, core::BalancedSplitRanges(ctx->base, ctx->pi))
            : core::PartitionCheckpoint(ctx->base, ctx->pi);
    if (!parts_result.ok()) {
      done(parts_result.status());
      return;
    }
    // Algorithm 2 audit: the split must exactly tile the parent's key range
    // and conserve every state entry and buffered tuple.
    if (auto* audit = cluster->audit()) {
      audit->OnPartitioned(ctx->base, parts_result.value());
    }
    ctx->parts = std::make_shared<std::vector<core::StateCheckpoint>>(
        std::move(parts_result).value());
    ctx->partition_delay = StateProcessingDelay(cluster, ctx->base.ByteSize());

    // Algorithm 3 lines 3-6: deploy pi new partitioned operators.
    for (uint32_t i = 0; i < ctx->pi; ++i) {
      auto deployed = cluster->membership()->DeployInstance(
          ctx->op, ctx->vms[i], (*ctx->parts)[i].key_range);
      SEEP_CHECK(deployed.ok());
      ctx->new_ids.push_back(deployed.value());
      NotePlanVmDisposed(*ctx, ctx->vms[i]);  // consumed by the deployment
    }
    ctx->vms.clear();
    done(Status::OK());
  };
  stage.compensate = [](PlanContext& ctx) { RetireDeployed(ctx); };
  return stage;
}

ReconfigStage ShipStage(SimTime deadline) {
  ReconfigStage stage;
  stage.kind = StageKind::kShip;
  stage.deadline = deadline;
  stage.forward = [](const std::shared_ptr<PlanContext>& ctx, StageDone done) {
    auto remaining = std::make_shared<uint32_t>(ctx->pi);
    for (uint32_t i = 0; i < ctx->pi; ++i) {
      ShipOnePartition(ctx, i, remaining, done);
    }
  };
  // Partial restores are undone by FetchAndPartition's compensation (the
  // deployed instances are retired wholesale, initial backups dropped with
  // them); nothing extra to undo here.
  stage.compensate = nullptr;
  return stage;
}

ReconfigStage HandoverStage() {
  ReconfigStage stage;
  stage.kind = StageKind::kRestore;
  stage.forward = [](const std::shared_ptr<PlanContext>& ctx, StageDone done) {
    runtime::Cluster* cluster = ctx->cluster;
    if (ctx->on_restored) ctx->on_restored(cluster->Now());

    // Algorithm 3 line 7: the partition holding the restored buffer state
    // replays it to downstream operators; their duplicate filters discard
    // anything they already processed.
    runtime::OperatorInstance* first = cluster->GetInstance(ctx->new_ids[0]);
    SEEP_CHECK(first != nullptr);
    for (OperatorId down : cluster->graph()->Downstream(ctx->op)) {
      first->ReplayBuffer(down, INT64_MIN, cluster->LiveInstancesOf(down),
                          /*fence_id=*/0);
    }
    // A fresh-origin partition then discards the inherited buffer: its
    // tuples carry the parent's origin and clock and would break the
    // monotone-timestamp invariant the trim protocol relies on. (A serial
    // recovery inherits the parent's origin, so its buffer stays.)
    if (!ctx->inherit_origin) first->buffer_state().buffers().clear();

    // Algorithm 3 line 8: stop the old operator and release its VM. On the
    // graceful path we first capture its processed positions: the new
    // partitions suppress re-emission while catching up through tuples the
    // parent already delivered downstream.
    // Membership removal is deferred to the routing switch (reroute stage):
    // until then, the stopped parent's frozen acknowledgement position keeps
    // upstream buffers from being trimmed past the replay point.
    runtime::OperatorInstance* parent = cluster->GetInstance(ctx->target);
    SEEP_CHECK(parent != nullptr);
    if (!ctx->recovery) {
      core::InputPositions parent_positions = parent->positions();
      cluster->membership()->StopInstance(ctx->target, /*release_vm=*/true);
      if (!ctx->inherit_origin) {
        for (InstanceId id : ctx->new_ids) {
          cluster->GetInstance(id)->SetSuppressUntil(parent_positions);
        }
      }
    } else {
      cluster->membership()->StopInstance(ctx->target, /*release_vm=*/false);
    }
    done(Status::OK());
  };
  return stage;
}

ReconfigStage RerouteStage() {
  ReconfigStage stage;
  stage.kind = StageKind::kReroute;
  stage.forward = [](const std::shared_ptr<PlanContext>& ctx, StageDone done) {
    // Algorithm 3 lines 9-11: stop upstream operators and repartition their
    // routing state, one control-plane round trip after the handover.
    ctx->cluster->simulation()->Schedule(ctx->control_delay, [ctx, done]() {
      if (!ctx->active) return;
      runtime::Cluster* cluster = ctx->cluster;
      cluster->membership()->FinalizeRetire(ctx->target);
      ctx->upstreams = cluster->UpstreamInstancesOf(ctx->op);
      for (InstanceId uid : ctx->upstreams) {
        cluster->GetInstance(uid)->Pause();
      }
      InstallCurrentRoutes(*ctx);
      done(Status::OK());
    });
  };
  return stage;
}

ReconfigStage SeedAcksAndReplayStage() {
  ReconfigStage stage;
  stage.kind = StageKind::kSeedAcksAndReplay;
  stage.forward = [](const std::shared_ptr<PlanContext>& ctx, StageDone done) {
    runtime::Cluster* cluster = ctx->cluster;
    std::vector<runtime::OperatorInstance*> upstream;
    for (InstanceId uid : ctx->upstreams) {
      upstream.push_back(cluster->GetInstance(uid));
    }
    const core::InputPositions& restored = (*ctx->parts)[0].positions;
    for (auto* u : upstream) {
      u->PruneAcks(ctx->op);
      for (InstanceId id : ctx->new_ids) {
        u->SeedAck(ctx->op, id, restored.Get(u->origin()));
      }
    }

    // Fence: one per (upstream instance, new partition) pair; when all have
    // drained, the new partitions have caught up (Algorithm 3 lines 12-14).
    uint64_t fence = 0;
    if (!upstream.empty()) {
      auto on_caught_up = ctx->on_caught_up;
      fence = cluster->fences()->Register(
          static_cast<int>(upstream.size() * ctx->new_ids.size()),
          std::set<InstanceId>(ctx->new_ids.begin(), ctx->new_ids.end()),
          [on_caught_up](SimTime at) {
            if (on_caught_up) on_caught_up(at);
          });
    }
    for (auto* u : upstream) {
      u->ReplayBuffer(ctx->op, restored.Get(u->origin()), ctx->new_ids, fence);
      u->Resume();
    }
    done(Status::OK());
  };
  return stage;
}

ReconfigStage CommitScaleOutStage() {
  ReconfigStage stage;
  stage.kind = StageKind::kCommit;
  stage.forward = [](const std::shared_ptr<PlanContext>& ctx, StageDone done) {
    runtime::Cluster* cluster = ctx->cluster;
    if (!ctx->recovery) {
      runtime::ScaleOutEvent event;
      event.at = cluster->Now();
      event.op = ctx->op;
      event.partitioned_instance = ctx->target;
      event.parallelism_before = static_cast<uint32_t>(ctx->partitions_before);
      event.parallelism_after =
          static_cast<uint32_t>(cluster->InstancesOf(ctx->op).size());
      cluster->metrics()->scale_outs.push_back(event);
      SEEP_LOG(kInfo, cluster->Now())
          << "scaled out op " << ctx->op << " to " << event.parallelism_after
          << " partitions";
    }
    done(Status::OK());
  };
  return stage;
}

ReconfigStage QuiesceAndDrainStage(SimTime deadline) {
  ReconfigStage stage;
  stage.kind = StageKind::kQuiesce;
  stage.deadline = deadline;
  stage.forward = [](const std::shared_ptr<PlanContext>& ctx, StageDone done) {
    ctx->partitions_before = ctx->cluster->InstancesOf(ctx->op).size();
    SuspendCheckpoints(*ctx, ctx->merge_a);
    SuspendCheckpoints(*ctx, ctx->merge_b);

    // Quiesce: pause every upstream instance, wait for both partitions to
    // drain, then capture consistent checkpoints and merge them (paper
    // §3.3's merge primitive for scale in).
    for (InstanceId uid : ctx->cluster->UpstreamInstancesOf(ctx->op)) {
      ctx->cluster->GetInstance(uid)->Pause();
      ctx->paused_upstreams.push_back(uid);
    }
    ctx->cluster->simulation()->Schedule(
        MillisToSim(100), [ctx, done]() { PollDrained(ctx, 0, done); });
  };
  stage.compensate = [](PlanContext& ctx) {
    for (InstanceId uid : ctx.paused_upstreams) {
      runtime::OperatorInstance* u = ctx.cluster->GetInstance(uid);
      if (u != nullptr) u->Resume();
    }
    ctx.paused_upstreams.clear();
    // The surviving merge partner must checkpoint again after an abort —
    // leaving it suspended would freeze its backup schedule forever.
    ResumeSuspended(ctx);
  };
  return stage;
}

ReconfigStage MergeStage() {
  ReconfigStage stage;
  stage.kind = StageKind::kMerge;
  stage.forward = [](const std::shared_ptr<PlanContext>& ctx, StageDone done) {
    runtime::OperatorInstance* a = ctx->cluster->GetInstance(ctx->merge_a);
    runtime::OperatorInstance* b = ctx->cluster->GetInstance(ctx->merge_b);
    auto merged =
        core::MergeCheckpoints({a->MakeCheckpoint(), b->MakeCheckpoint()});
    SEEP_CHECK(merged.ok());
    ctx->merged =
        std::make_shared<core::StateCheckpoint>(std::move(merged).value());
    done(Status::OK());
  };
  return stage;
}

ReconfigStage DeployMergedStage() {
  ReconfigStage stage;
  stage.kind = StageKind::kRestore;
  stage.forward = [](const std::shared_ptr<PlanContext>& ctx, StageDone done) {
    runtime::Cluster* cluster = ctx->cluster;
    auto deployed = cluster->membership()->DeployInstance(
        ctx->op, ctx->vms[0], ctx->merged->key_range);
    SEEP_CHECK(deployed.ok());
    NotePlanVmDisposed(*ctx, ctx->vms[0]);
    ctx->vms.clear();
    const InstanceId new_id = deployed.value();
    ctx->new_ids.push_back(new_id);
    runtime::OperatorInstance* inst = cluster->GetInstance(new_id);
    inst->Restore(*ctx->merged, /*inherit_origin=*/false);
    inst->Start();
    done(Status::OK());
  };
  stage.compensate = [](PlanContext& ctx) { RetireDeployed(ctx); };
  return stage;
}

ReconfigStage RerouteMergedStage() {
  ReconfigStage stage;
  stage.kind = StageKind::kReroute;
  stage.forward = [](const std::shared_ptr<PlanContext>& ctx, StageDone done) {
    ctx->cluster->membership()->RetireInstance(ctx->merge_a,
                                               /*release_vm=*/true);
    ctx->cluster->membership()->RetireInstance(ctx->merge_b,
                                               /*release_vm=*/true);
    InstallCurrentRoutes(*ctx);
    done(Status::OK());
  };
  return stage;
}

ReconfigStage SeedAcksAndReplayMergedStage() {
  ReconfigStage stage;
  stage.kind = StageKind::kSeedAcksAndReplay;
  stage.forward = [](const std::shared_ptr<PlanContext>& ctx, StageDone done) {
    const InstanceId new_id = ctx->new_ids[0];
    for (InstanceId uid : ctx->paused_upstreams) {
      runtime::OperatorInstance* u = ctx->cluster->GetInstance(uid);
      u->PruneAcks(ctx->op);
      u->SeedAck(ctx->op, new_id, ctx->merged->positions.Get(u->origin()));
      u->ReplayBuffer(ctx->op, ctx->merged->positions.Get(u->origin()),
                      {new_id}, /*fence_id=*/0);
      u->Resume();
    }
    ctx->paused_upstreams.clear();
    done(Status::OK());
  };
  return stage;
}

ReconfigStage CommitScaleInStage() {
  ReconfigStage stage;
  stage.kind = StageKind::kCommit;
  stage.forward = [](const std::shared_ptr<PlanContext>& ctx, StageDone done) {
    runtime::Cluster* cluster = ctx->cluster;
    runtime::ScaleInEvent event;
    event.at = cluster->Now();
    event.op = ctx->op;
    event.merged_a = ctx->merge_a;
    event.merged_b = ctx->merge_b;
    event.merged_into = ctx->new_ids[0];
    event.parallelism_before = static_cast<uint32_t>(ctx->partitions_before);
    event.parallelism_after =
        static_cast<uint32_t>(cluster->InstancesOf(ctx->op).size());
    cluster->metrics()->scale_ins.push_back(event);
    SEEP_LOG(kInfo, cluster->Now())
        << "scaled in op " << ctx->op << " to " << event.parallelism_after
        << " partitions";
    done(Status::OK());
  };
  return stage;
}

ReconfigStage DeployReplacementStage() {
  ReconfigStage stage;
  stage.kind = StageKind::kRestore;
  stage.forward = [](const std::shared_ptr<PlanContext>& ctx, StageDone done) {
    runtime::Cluster* cluster = ctx->cluster;
    auto deployed = cluster->membership()->DeployInstance(
        ctx->op, ctx->vms[0], ctx->replacement_range);
    SEEP_CHECK(deployed.ok());
    NotePlanVmDisposed(*ctx, ctx->vms[0]);
    ctx->vms.clear();
    const InstanceId new_id = deployed.value();
    ctx->new_ids.push_back(new_id);
    cluster->GetInstance(new_id)->Start();
    if (ctx->on_restored) ctx->on_restored(cluster->Now());
    done(Status::OK());
  };
  stage.compensate = [](PlanContext& ctx) { RetireDeployed(ctx); };
  return stage;
}

ReconfigStage RerouteRetireFailedStage() {
  ReconfigStage stage;
  stage.kind = StageKind::kReroute;
  stage.forward = [](const std::shared_ptr<PlanContext>& ctx, StageDone done) {
    ctx->cluster->membership()->RetireInstance(ctx->target,
                                               /*release_vm=*/false);
    InstallCurrentRoutes(*ctx);
    done(Status::OK());
  };
  return stage;
}

ReconfigStage ReplayUpstreamBuffersStage() {
  ReconfigStage stage;
  stage.kind = StageKind::kSeedAcksAndReplay;
  stage.forward = [](const std::shared_ptr<PlanContext>& ctx, StageDone done) {
    runtime::Cluster* cluster = ctx->cluster;
    const InstanceId new_id = ctx->new_ids[0];

    // Upstream backup: every upstream instance replays its (window-length)
    // buffer; the replacement rebuilds state by re-processing it all.
    std::vector<InstanceId> upstream = cluster->UpstreamInstancesOf(ctx->op);
    auto on_caught_up = ctx->on_caught_up;
    const uint64_t fence = cluster->fences()->Register(
        static_cast<int>(upstream.size()), {new_id},
        [on_caught_up](SimTime at) {
          if (on_caught_up) on_caught_up(at);
        });
    for (InstanceId uid : upstream) {
      cluster->GetInstance(uid)->ReplayBuffer(ctx->op, INT64_MIN, {new_id},
                                              fence);
    }
    done(Status::OK());
  };
  return stage;
}

ReconfigStage SourceReplayStage() {
  ReconfigStage stage;
  stage.kind = StageKind::kSeedAcksAndReplay;
  stage.forward = [](const std::shared_ptr<PlanContext>& ctx, StageDone done) {
    runtime::Cluster* cluster = ctx->cluster;
    const InstanceId new_id = ctx->new_ids[0];

    // Source replay: pause generation, reset the whole pipeline, and
    // recompute everything from the sources' buffered history [29].
    std::vector<InstanceId> source_instances;
    for (const auto& [id, inst] : cluster->instances()) {
      if (!inst->alive() || inst->stopped()) continue;
      if (inst->spec().kind == core::VertexKind::kSource) {
        inst->Pause();
        source_instances.push_back(id);
      } else if (inst->spec().kind == core::VertexKind::kOperator) {
        inst->ResetEmpty(cluster->NewOrigin());
      }
    }

    const int expected = ExpectedSourceFences(cluster, ctx->op);
    auto on_caught_up = ctx->on_caught_up;
    const uint64_t fence = cluster->fences()->Register(
        expected, {new_id},
        [cluster, on_caught_up, source_instances](SimTime at) {
          if (on_caught_up) on_caught_up(at);
          for (InstanceId sid : source_instances) {
            runtime::OperatorInstance* s = cluster->GetInstance(sid);
            if (s != nullptr) s->Resume();
          }
        });
    for (InstanceId sid : source_instances) {
      runtime::OperatorInstance* s = cluster->GetInstance(sid);
      for (OperatorId down : cluster->graph()->Downstream(s->op())) {
        s->ReplayBuffer(down, INT64_MIN, cluster->LiveInstancesOf(down),
                        fence);
      }
    }
    done(Status::OK());
  };
  return stage;
}

ReconfigStage CommitRecoveryStage() {
  ReconfigStage stage;
  stage.kind = StageKind::kCommit;
  stage.forward = [](const std::shared_ptr<PlanContext>& ctx, StageDone done) {
    (void)ctx;
    done(Status::OK());
  };
  return stage;
}

}  // namespace seep::control
