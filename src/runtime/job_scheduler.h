#ifndef SEEP_RUNTIME_JOB_SCHEDULER_H_
#define SEEP_RUNTIME_JOB_SCHEDULER_H_

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "core/state.h"
#include "core/tuple.h"
#include "sim/simulation.h"

namespace seep::runtime {

/// The single-server FIFO queue of one operator instance: tuple batches,
/// checkpoints and window timers are jobs whose service time is derived from
/// per-tuple/per-byte CPU costs divided by the VM's capacity. The scheduler
/// owns queueing, pause/resume and busy-time accounting; what a job *does*
/// (cost model, processing, emission) is delegated to the Host.
class JobScheduler {
 public:
  struct Job {
    enum class Kind { kBatch, kCheckpoint, kTimer };
    Kind kind = Kind::kBatch;
    core::TupleBatch batch;                    // kBatch
    std::unique_ptr<core::StateCheckpoint> ckpt;  // kCheckpoint
    std::vector<std::pair<int, core::Tuple>> timer_emissions;  // kTimer
    double cost_us = 0;
  };

  /// The operator instance hosting this scheduler. PrepareJob runs when a
  /// job reaches the head of the queue (checkpoints snapshot state here —
  /// the paper's get-processing-state "locks all internal operator data
  /// structures") and must set `cost_us`; FinishJob runs when its service
  /// time has elapsed.
  class Host {
   public:
    virtual ~Host() = default;
    virtual void PrepareJob(Job* job) = 0;
    virtual void FinishJob(Job* job) = 0;
    virtual bool alive() const = 0;
    virtual bool stopped() const = 0;
  };

  JobScheduler(sim::Simulation* sim, Host* host, double vm_capacity)
      : sim_(sim), host_(host), vm_capacity_(vm_capacity) {}

  /// Enqueues a job and starts it if the server is free. Checkpoints jump
  /// the queue: the paper's checkpointing is asynchronous, so a backlog of
  /// tuples must not delay the checkpoint — a late checkpoint delays trim
  /// acknowledgements, upstream buffers balloon, and the next recovery or
  /// scale-out replays far more than one interval's worth.
  void Enqueue(Job job);

  /// Temporarily halts job starts (the in-flight job still completes).
  void Pause() { paused_ = true; }
  void Resume();

  /// Backpressure throttle: halts job starts for `duration`, then resumes
  /// automatically. Independent of Pause/Resume (which coordinators own);
  /// re-throttling while already throttled is a no-op, so a burst of
  /// pressured sends costs one pause, not a pile-up of them.
  void ThrottleFor(SimTime duration);
  bool throttled() const { return throttled_; }

  /// Discards all queued jobs (graceful stop / crash-stop / reset).
  void Clear();

  bool idle() const { return !busy_ && queue_.empty(); }
  bool paused() const { return paused_; }
  size_t queued_tuples() const { return queued_tuples_; }

  /// Busy time (µs of wall simulated time this VM spent serving jobs) since
  /// the last call; the bottleneck detector's CPU utilisation signal.
  /// Catch-up work on replayed tuples is excluded: it is transient by
  /// construction (bounded by one checkpoint interval of backlog), and
  /// treating it as load would make every fresh partition look like a
  /// bottleneck and trigger split storms.
  double TakeBusyMicros();

 private:
  void TryStart();

  sim::Simulation* sim_;
  Host* host_;
  double vm_capacity_;

  bool busy_ = false;
  bool paused_ = false;
  bool throttled_ = false;
  Job current_;  // the job in service while busy_
  std::deque<Job> queue_;
  size_t queued_tuples_ = 0;
  double busy_accum_us_ = 0;
};

}  // namespace seep::runtime

#endif  // SEEP_RUNTIME_JOB_SCHEDULER_H_
