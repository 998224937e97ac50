#include "runtime/operator_instance.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "runtime/cluster.h"
#include "runtime/transport.h"

namespace seep::runtime {

namespace {
// How long an instance throttles its job scheduler after SendBatch reports
// outbound queue pressure (only the TCP backend ever does).
constexpr SimTime kBackpressurePause = MillisToSim(5);
// Granularity at which sources materialise tuples into batches.
constexpr SimTime kSourceTick = MillisToSim(100);
// CPU cost of the async pipeline's capture pause, µs per KiB of processing
// state: the O(dirty) snapshot, not serialization.
constexpr double kCaptureCostUsPerKb = 1.0;
}  // namespace

// Gathers the emissions of one Process/OnTimer invocation together with the
// per-emission suppression flag (catch-up suppression applies per input
// tuple, and one input can produce several outputs).
class OperatorInstance::EmitCollector : public core::Collector {
 public:
  void EmitTo(int port, core::Tuple tuple) override {
    emissions.emplace_back(port, std::move(tuple));
    suppressed.push_back(suppress);
  }

  std::vector<std::pair<int, core::Tuple>> emissions;
  std::vector<bool> suppressed;
  bool suppress = false;
};

OperatorInstance::OperatorInstance(Cluster* cluster, Params params)
    : cluster_(cluster),
      p_(params),
      origin_(params.origin),
      trims_(
          &buffer_,
          [cluster](OperatorId op) {
            return cluster->membership()->InstancesOf(op);
          },
          cluster->audit(), params.id),
      router_(cluster, this, &trims_),
      checkpoints_(cluster, this),
      scheduler_(cluster->simulation(), this, params.vm_capacity) {
  SEEP_CHECK(p_.spec != nullptr);
  switch (p_.spec->kind) {
    case core::VertexKind::kSource:
      source_ = p_.spec->source_factory(p_.source_index, p_.source_count);
      break;
    case core::VertexKind::kOperator:
      operator_ = p_.spec->factory();
      break;
    case core::VertexKind::kSink:
      sink_ = p_.spec->sink_factory();
      break;
  }
}

OperatorInstance::~OperatorInstance() = default;

double OperatorInstance::CostMicrosPerTuple() const {
  if (operator_) return operator_->CostMicrosPerTuple();
  return p_.spec->endpoint_cost_us;
}

// ------------------------------------------------------------------ lifecycle

void OperatorInstance::Start() {
  if (source_) ScheduleSourceTick();
  if (operator_ && operator_->TimerInterval() > 0) ScheduleWindowTimer();

  const FaultToleranceMode mode = cluster_->config().ft_mode;
  const bool is_inner = p_.spec->kind == core::VertexKind::kOperator;
  if (mode == FaultToleranceMode::kStateManagement && is_inner) {
    checkpoints_.StartSchedule();
  }
  // Age-based buffer trimming replaces checkpoint-driven trimming in the
  // baselines (and bounds buffers when checkpointing is off entirely).
  if (mode != FaultToleranceMode::kStateManagement) ScheduleAgeTrim();
}

void OperatorInstance::Stop() {
  stopped_ = true;
  scheduler_.Clear();
}

void OperatorInstance::MarkDead(SimTime now) {
  alive_ = false;
  died_at_ = now;
  scheduler_.Clear();
}

void OperatorInstance::Pause() { scheduler_.Pause(); }

void OperatorInstance::Resume() { scheduler_.Resume(); }

// -------------------------------------------------------------------- arrival

void OperatorInstance::OnBatch(core::TupleBatch batch) {
  if (!alive_ || stopped_) return;
  const size_t n = batch.tuples.size();
  if (batch.fence_id == 0 && !batch.replay &&
      scheduler_.queued_tuples() + n > cluster_->config().max_queue_tuples) {
    cluster_->metrics()->dropped_tuples.Add(cluster_->Now(), n);
    return;
  }
  JobScheduler::Job job;
  job.kind = JobScheduler::Job::Kind::kBatch;
  job.batch = std::move(batch);
  EnqueueJob(std::move(job));
}

void OperatorInstance::EnqueueJob(JobScheduler::Job job) {
  scheduler_.Enqueue(std::move(job));
}

void OperatorInstance::OnSendPressure() {
  scheduler_.ThrottleFor(kBackpressurePause);
}

// ------------------------------------------------------------------ job hooks

void OperatorInstance::PrepareJob(JobScheduler::Job* job) {
  using Kind = JobScheduler::Job::Kind;
  switch (job->kind) {
    case Kind::kBatch:
      job->cost_us = static_cast<double>(job->batch.tuples.size()) *
                     CostMicrosPerTuple();
      break;
    case Kind::kCheckpoint: {
      const ClusterConfig& config = cluster_->config();
      job->ckpt = std::make_unique<core::StateCheckpoint>(
          checkpoints_.Capture(checkpoints_.CanCheckpointIncrementally()));
      if (job->ckpt->is_delta) {
        ++cluster_->metrics()->delta_checkpoints_taken;
      }
      const double kib =
          static_cast<double>(job->ckpt->processing.ByteSize() + 64) / 1024.0;
      // The pause is charged for the processing state only: buffer tuples
      // are retained in wire format and need no re-encoding (their bytes
      // still cost network transfer). The asynchronous pipeline pauses the
      // operator only for the capture and charges serialization on its
      // background stage; the synchronous path serializes in the pause,
      // which is what makes frequent checkpoints of large state expensive
      // (paper Figs. 14/15).
      job->cost_us = kib * (config.async_checkpoints
                                ? kCaptureCostUsPerKb
                                : config.serialize_cost_us_per_kb);
      break;
    }
    case Kind::kTimer: {
      EmitCollector collector;
      operator_->OnTimer(cluster_->Now(), &collector);
      job->timer_emissions = std::move(collector.emissions);
      job->cost_us = static_cast<double>(job->timer_emissions.size()) *
                     CostMicrosPerTuple();
      break;
    }
  }
}

void OperatorInstance::FinishJob(JobScheduler::Job* job) {
  using Kind = JobScheduler::Job::Kind;
  switch (job->kind) {
    case Kind::kBatch:
      if (job->batch.fence_id != 0) {
        if (auto* audit = cluster_->audit()) {
          audit->OnFenceProcessed(job->batch.fence_id, job->batch.from, id());
        }
        cluster_->fences()->Handle(job->batch.fence_id, this);
        return;
      }
      if (auto* audit = cluster_->audit();
          audit != nullptr && job->batch.replay) {
        audit->OnReplayProcessed(job->batch.from, id(),
                                 job->batch.tuples.size());
      }
      if (sink_) {
        ConsumeAtSink(&job->batch);
      } else if (operator_) {
        ProcessBatch(&job->batch);
      }
      break;
    case Kind::kCheckpoint:
      cluster_->metrics()->ckpt_pause_ms.Add(job->cost_us / 1000.0);
      if (cluster_->config().async_checkpoints) {
        checkpoints_.ShipAsync(std::move(*job->ckpt));
      } else {
        ShipToBackupHolder(cluster_, this,
                           CheckpointParcel{std::move(*job->ckpt)});
      }
      break;
    case Kind::kTimer:
      router_.Flush(&job->timer_emissions, nullptr);
      break;
  }
}

// ----------------------------------------------------------------- processing

void OperatorInstance::ProcessBatch(core::TupleBatch* batch) {
  EmitCollector collector;
  MetricsRegistry* metrics = cluster_->metrics();
  for (core::Tuple& t : batch->tuples) {
    // Per-origin duplicate filtering: replayed tuples already reflected in
    // the restored state are discarded here (paper §3.2).
    const bool suppress = router_.ShouldSuppress(t.origin, t.timestamp);
    if (!positions_.Advance(t.origin, t.timestamp)) {
      ++metrics->duplicates_dropped;
      continue;
    }
    collector.suppress = suppress;
    operator_->Process(t, &collector);
    ++processed_tuples_;
  }
  ++metrics->tuples_processed;  // batch granularity is fine for this counter
  router_.Flush(&collector.emissions, &collector.suppressed);
}

void OperatorInstance::ConsumeAtSink(core::TupleBatch* batch) {
  MetricsRegistry* metrics = cluster_->metrics();
  const SimTime now = cluster_->Now();
  for (core::Tuple& t : batch->tuples) {
    if (!positions_.Advance(t.origin, t.timestamp)) {
      ++metrics->duplicates_dropped;
      continue;
    }
    if (auto* audit = cluster_->audit()) {
      audit->OnSinkDelivered(p_.op, t.origin, t.timestamp);
    }
    sink_->Consume(t, now);
    metrics->sink_tuples.Add(now, 1);
    if (t.latency_sample) {
      const double latency_ms = SimToMillis(now - t.event_time);
      metrics->latency_ms.Add(latency_ms);
      if (metrics->sink_tuples.total() % metrics->latency_series_stride ==
          0) {
        metrics->latency_series_ms.Add(now, latency_ms);
      }
    }
  }
}

// ----------------------------------------------------------- periodic events

void OperatorInstance::ScheduleWindowTimer() {
  cluster_->simulation()->Schedule(operator_->TimerInterval(), [this]() {
    if (!alive_ || stopped_) return;
    JobScheduler::Job job;
    job.kind = JobScheduler::Job::Kind::kTimer;
    EnqueueJob(std::move(job));
    ScheduleWindowTimer();
  });
}

void OperatorInstance::ScheduleSourceTick() {
  const SimTime dt = kSourceTick;
  cluster_->simulation()->Schedule(dt, [this, dt]() {
    if (!alive_ || stopped_) return;
    ScheduleSourceTick();
    if (scheduler_.paused()) {
      // Generation is halted (source-replay recovery pauses sources), but
      // the offered load is backlogged — a real feeder reads from a log —
      // and is emitted as a catch-up burst on resume.
      owed_source_time_ += dt;
      return;
    }
    const SimTime effective_dt = dt + owed_source_time_;
    owed_source_time_ = 0;
    EmitCollector collector;
    source_->GenerateBatch(cluster_->Now(), effective_dt, &collector);
    // Finite source capacity: the paper's sources max out on serialisation
    // (~600k tuples/s); beyond that, generation saturates.
    const double cost = p_.spec->endpoint_cost_us;
    const size_t max_tuples = static_cast<size_t>(
        p_.vm_capacity * static_cast<double>(dt) / std::max(cost, 1e-9));
    if (collector.emissions.size() > max_tuples) {
      collector.emissions.resize(max_tuples);
      ++cluster_->metrics()->source_saturated_ticks;
    }
    cluster_->metrics()->source_tuples.Add(cluster_->Now(),
                                           collector.emissions.size());
    router_.Flush(&collector.emissions, nullptr);
  });
}

void OperatorInstance::ScheduleAgeTrim() {
  cluster_->simulation()->Schedule(kMicrosPerSecond, [this]() {
    if (!alive_ || stopped_) return;
    const SimTime cutoff = cluster_->Now() - cluster_->config().buffer_window;
    if (cutoff > 0) buffer_.TrimByEventTime(cutoff);
    ScheduleAgeTrim();
  });
}

// ----------------------------------------------------------- state management

void OperatorInstance::Restore(const core::StateCheckpoint& checkpoint,
                               bool inherit_origin) {
  if (inherit_origin) {
    origin_ = checkpoint.origin;
    router_.set_out_clock(checkpoint.out_clock);
  }
  positions_ = checkpoint.positions;
  if (operator_) operator_->SetProcessingState(checkpoint.processing);
  buffer_ = checkpoint.buffer;
  checkpoints_.OnRestore(checkpoint);
}

void OperatorInstance::ResetEmpty(core::OriginId fresh_origin) {
  origin_ = fresh_origin;
  router_.Reset();
  positions_ = core::InputPositions();
  buffer_ = core::BufferState();
  scheduler_.Clear();
  checkpoints_.Reset();
  if (operator_) operator_->SetProcessingState(core::ProcessingState());
}

// --------------------------------------------------------------------- replay

void OperatorInstance::ReplayBuffer(OperatorId down, int64_t from_ts,
                                    const std::vector<InstanceId>& targets,
                                    uint64_t fence_id) {
  std::map<InstanceId, core::TupleBatch> outgoing;
  const core::TupleBuffer* tuples = buffer_.Get(down);
  size_t replayed = 0;
  if (tuples != nullptr) {
    // Timestamp-sorted buffer: start straight at the first tuple past the
    // restore point, so only the tuples that may replay are decoded.
    for (size_t i = tuples->UpperBound(from_ts); i < tuples->size(); ++i) {
      core::Tuple t = tuples->At(i);
      const InstanceId dest = cluster_->routing()->RouteKey(down, t.key);
      if (std::find(targets.begin(), targets.end(), dest) == targets.end()) {
        continue;
      }
      trims_.NoteSent(down, dest, t.timestamp);
      outgoing[dest].tuples.push_back(std::move(t));
      ++replayed;
    }
  }
  cluster_->metrics()->tuples_replayed += replayed;
  verify::InvariantAuditor* audit = cluster_->audit();
  for (auto& [dest, batch] : outgoing) {
    batch.replay = true;
    if (audit) audit->OnReplaySent(id(), dest, batch.tuples.size());
    // Replay runs to completion during recovery, outside the job
    // scheduler the pressure signal throttles; deferring here would
    // stall the fence below and with it the whole recovery.
    // seep-ok: unchecked-status -- recovery replay cannot throttle
    (void)cluster_->transport()->SendBatch(this, dest, std::move(batch));
  }
  if (fence_id != 0) {
    // The fence follows the replay batches on the same FIFO links, so its
    // arrival implies the replay has fully drained.
    for (InstanceId dest : targets) {
      core::TupleBatch fence;
      fence.fence_id = fence_id;
      fence.replay = true;
      if (audit) audit->OnFenceSent(fence_id, id(), dest);
      // seep-ok: unchecked-status -- fence trails replay on FIFO links
      (void)cluster_->transport()->SendBatch(this, dest, std::move(fence));
    }
  }
}

}  // namespace seep::runtime
