#include "runtime/job_scheduler.h"

#include <algorithm>

namespace seep::runtime {

void JobScheduler::Enqueue(Job job) {
  if (job.kind == Job::Kind::kBatch) queued_tuples_ += job.batch.tuples.size();
  if (job.kind == Job::Kind::kCheckpoint) {
    queue_.push_front(std::move(job));
  } else {
    queue_.push_back(std::move(job));
  }
  TryStart();
}

void JobScheduler::Resume() {
  if (!paused_) return;
  paused_ = false;
  TryStart();
}

void JobScheduler::ThrottleFor(SimTime duration) {
  if (throttled_ || duration <= 0) return;
  throttled_ = true;
  sim_->Schedule(duration, [this]() {
    throttled_ = false;
    TryStart();
  });
}

void JobScheduler::Clear() {
  queue_.clear();
  queued_tuples_ = 0;
}

void JobScheduler::TryStart() {
  if (busy_ || paused_ || throttled_ || !host_->alive() ||
      host_->stopped() || queue_.empty()) {
    return;
  }

  current_ = std::move(queue_.front());
  queue_.pop_front();

  // Determine the job's CPU cost (checkpoint jobs snapshot state here, so
  // their cost reflects the real encoded size).
  host_->PrepareJob(&current_);

  busy_ = true;
  const SimTime duration = std::max<SimTime>(
      0, static_cast<SimTime>(current_.cost_us / vm_capacity_));
  const bool replay_catch_up =
      current_.kind == Job::Kind::kBatch && current_.batch.replay;
  if (!replay_catch_up) busy_accum_us_ += static_cast<double>(duration);
  sim_->Schedule(duration, [this]() {
    // Moved out first: FinishJob may start the next job on this scheduler,
    // and a dead host's job is freed here.
    Job job = std::move(current_);
    if (!host_->alive()) return;
    busy_ = false;
    if (!host_->stopped()) {
      if (job.kind == Job::Kind::kBatch) {
        queued_tuples_ -= std::min(queued_tuples_, job.batch.tuples.size());
      }
      host_->FinishJob(&job);
    }
    TryStart();
  });
}

double JobScheduler::TakeBusyMicros() {
  const double v = busy_accum_us_;
  busy_accum_us_ = 0;
  return v;
}

}  // namespace seep::runtime
