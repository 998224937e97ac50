// Unit tests for the runtime components extracted from OperatorInstance:
// TrimTracker's ack/trim semantics (standalone, with an injected buffer and
// membership), JobScheduler's FIFO/pause/priority behaviour (standalone,
// with a fake host), and CheckpointPlane suspension plus source catch-up on
// a minimal deployed query, and the EmissionRouter's delivery to a
// scaled-out downstream.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "control/deployment_manager.h"
#include "runtime/cluster.h"
#include "runtime/job_scheduler.h"
#include "runtime/operator_instance.h"
#include "runtime/trim_tracker.h"
#include "sps/sps.h"

namespace seep::runtime {
namespace {

// ------------------------------------------------------------- TrimTracker

core::Tuple MakeTuple(int64_t timestamp) {
  core::Tuple t;
  t.timestamp = timestamp;
  return t;
}

struct TrimFixture {
  explicit TrimFixture(std::vector<InstanceId> members)
      : members_(std::move(members)),
        tracker(&buffer, [this](OperatorId) { return members_; }) {}

  size_t Buffered(OperatorId down) const {
    const core::TupleBuffer* tuples = buffer.Get(down);
    return tuples == nullptr ? 0 : tuples->size();
  }

  std::vector<InstanceId> members_;
  core::BufferState buffer;
  TrimTracker tracker;
};

constexpr OperatorId kDown = 7;

TEST(TrimTrackerTest, TrimsToMinimumAckOverOutstandingDestinations) {
  TrimFixture f({1, 2});
  for (int64_t ts = 1; ts <= 10; ++ts) f.buffer.Append(kDown, MakeTuple(ts));
  // Both destinations have outstanding tuples; the slower ack bounds trims.
  f.tracker.NoteSent(kDown, 1, 10);
  f.tracker.NoteSent(kDown, 2, 9);
  f.tracker.OnTrimAck(kDown, 1, 6);
  EXPECT_EQ(f.Buffered(kDown), 10u);  // dest 2 has not acked at all
  f.tracker.OnTrimAck(kDown, 2, 4);
  EXPECT_EQ(f.Buffered(kDown), 6u);  // trimmed through min(6, 4) = 4
  f.tracker.OnTrimAck(kDown, 2, 6);
  EXPECT_EQ(f.Buffered(kDown), 4u);  // both acked through 6
}

TEST(TrimTrackerTest, DestinationWithoutOutstandingTuplesDoesNotBlockTrim) {
  // Key-preserving routing can leave a sibling partition without any tuples
  // from this instance; its silence must not freeze upstream buffers.
  TrimFixture f({1, 2});
  for (int64_t ts = 1; ts <= 10; ++ts) f.buffer.Append(kDown, MakeTuple(ts));
  f.tracker.NoteSent(kDown, 1, 10);  // nothing ever sent to dest 2
  f.tracker.OnTrimAck(kDown, 1, 8);
  EXPECT_EQ(f.Buffered(kDown), 2u);
}

TEST(TrimTrackerTest, FullyAckedDestinationsTrimToMaxSent) {
  TrimFixture f({1, 2});
  for (int64_t ts = 1; ts <= 10; ++ts) f.buffer.Append(kDown, MakeTuple(ts));
  f.tracker.NoteSent(kDown, 1, 6);
  f.tracker.NoteSent(kDown, 2, 10);
  f.tracker.OnTrimAck(kDown, 1, 6);    // dest 1 fully covered
  f.tracker.OnTrimAck(kDown, 2, 10);   // dest 2 fully covered
  EXPECT_EQ(f.Buffered(kDown), 0u);    // nothing outstanding anywhere
}

TEST(TrimTrackerTest, AcksNeverRegress) {
  TrimFixture f({1});
  for (int64_t ts = 1; ts <= 10; ++ts) f.buffer.Append(kDown, MakeTuple(ts));
  f.tracker.NoteSent(kDown, 1, 10);
  f.tracker.OnTrimAck(kDown, 1, 8);
  EXPECT_EQ(f.Buffered(kDown), 2u);
  // A stale (out-of-order) ack must not re-lower the position.
  f.tracker.OnTrimAck(kDown, 1, 3);
  EXPECT_EQ(f.Buffered(kDown), 2u);
}

TEST(TrimTrackerTest, PruneDropsReplacedInstancesAndUnblocksTrims) {
  TrimFixture f({1, 2});
  for (int64_t ts = 1; ts <= 10; ++ts) f.buffer.Append(kDown, MakeTuple(ts));
  f.tracker.NoteSent(kDown, 1, 10);
  f.tracker.NoteSent(kDown, 2, 10);
  f.tracker.OnTrimAck(kDown, 1, 9);
  EXPECT_EQ(f.Buffered(kDown), 10u);  // dest 2 still outstanding, no ack
  // Dest 2 was replaced by dest 3 (scale out); its stale entries go away.
  f.members_ = {1, 3};
  f.tracker.PruneAcks(kDown);
  // Dest 3 restored from a checkpoint covering position 9 of this origin.
  f.tracker.SeedAck(kDown, 3, 9);
  f.tracker.OnTrimAck(kDown, 1, 9);
  EXPECT_EQ(f.Buffered(kDown), 1u);
}

TEST(TrimTrackerTest, EmptyMembershipTrimsNothing) {
  TrimFixture f({});
  f.buffer.Append(kDown, MakeTuple(1));
  f.tracker.NoteSent(kDown, 1, 1);
  f.tracker.OnTrimAck(kDown, 1, 1);
  EXPECT_EQ(f.Buffered(kDown), 1u);
}

// ------------------------------------------------------------ JobScheduler

// Host that gives every batch a fixed cost and records completion order.
class RecordingHost : public JobScheduler::Host {
 public:
  explicit RecordingHost(double cost_us) : cost_us_(cost_us) {}

  void PrepareJob(JobScheduler::Job* job) override { job->cost_us = cost_us_; }
  void FinishJob(JobScheduler::Job* job) override {
    finished.push_back(job->kind);
  }
  bool alive() const override { return alive_v; }
  bool stopped() const override { return stopped_v; }

  std::vector<JobScheduler::Job::Kind> finished;
  bool alive_v = true;
  bool stopped_v = false;

 private:
  double cost_us_;
};

JobScheduler::Job BatchJob(size_t tuples) {
  JobScheduler::Job job;
  job.kind = JobScheduler::Job::Kind::kBatch;
  job.batch.tuples.resize(tuples);
  return job;
}

TEST(JobSchedulerTest, PauseDefersStartsResumeDrainsQueue) {
  sim::Simulation sim;
  RecordingHost host(/*cost_us=*/100);
  JobScheduler sched(&sim, &host, /*vm_capacity=*/1.0);

  sched.Pause();
  sched.Enqueue(BatchJob(1));
  sched.Enqueue(BatchJob(2));
  sim.RunUntil(MillisToSim(10));
  EXPECT_TRUE(host.finished.empty());
  EXPECT_EQ(sched.queued_tuples(), 3u);
  EXPECT_TRUE(sched.paused());

  sched.Resume();
  sim.RunUntil(MillisToSim(20));
  EXPECT_EQ(host.finished.size(), 2u);
  EXPECT_EQ(sched.queued_tuples(), 0u);
  EXPECT_TRUE(sched.idle());
}

TEST(JobSchedulerTest, CheckpointJobsJumpTheQueue) {
  sim::Simulation sim;
  RecordingHost host(/*cost_us=*/100);
  JobScheduler sched(&sim, &host, /*vm_capacity=*/1.0);

  sched.Pause();  // hold the server so ordering is decided by the queue
  sched.Enqueue(BatchJob(1));
  JobScheduler::Job ckpt;
  ckpt.kind = JobScheduler::Job::Kind::kCheckpoint;
  sched.Enqueue(std::move(ckpt));
  sched.Resume();
  sim.RunUntil(MillisToSim(10));

  ASSERT_EQ(host.finished.size(), 2u);
  EXPECT_EQ(host.finished[0], JobScheduler::Job::Kind::kCheckpoint);
  EXPECT_EQ(host.finished[1], JobScheduler::Job::Kind::kBatch);
}

TEST(JobSchedulerTest, ServiceTimeScalesWithVmCapacity) {
  sim::Simulation sim;
  RecordingHost host(/*cost_us=*/1000);
  JobScheduler sched(&sim, &host, /*vm_capacity=*/2.0);
  sched.Enqueue(BatchJob(1));
  sim.RunUntil(400);  // 1000 µs at capacity 2 = 500 µs; not done at 400
  EXPECT_TRUE(host.finished.empty());
  sim.RunUntil(600);
  EXPECT_EQ(host.finished.size(), 1u);
  EXPECT_DOUBLE_EQ(sched.TakeBusyMicros(), 500.0);
  EXPECT_DOUBLE_EQ(sched.TakeBusyMicros(), 0.0);  // consumed
}

TEST(JobSchedulerTest, ReplayBatchesAreExcludedFromBusyAccounting) {
  sim::Simulation sim;
  RecordingHost host(/*cost_us=*/1000);
  JobScheduler sched(&sim, &host, /*vm_capacity=*/1.0);
  JobScheduler::Job replay = BatchJob(1);
  replay.batch.replay = true;
  sched.Enqueue(std::move(replay));
  sim.RunUntil(MillisToSim(10));
  EXPECT_EQ(host.finished.size(), 1u);
  EXPECT_DOUBLE_EQ(sched.TakeBusyMicros(), 0.0);
}

TEST(JobSchedulerTest, ClearDiscardsQueuedJobsButNotInFlight) {
  sim::Simulation sim;
  RecordingHost host(/*cost_us=*/1000);
  JobScheduler sched(&sim, &host, /*vm_capacity=*/1.0);
  sched.Enqueue(BatchJob(1));  // starts immediately (in flight)
  sched.Enqueue(BatchJob(1));
  sched.Enqueue(BatchJob(1));
  sched.Clear();
  sim.RunUntil(MillisToSim(10));
  EXPECT_EQ(host.finished.size(), 1u);  // only the in-flight job completed
  EXPECT_TRUE(sched.idle());
}

// ----------------------------------- CheckpointPlane + source catch-up
// (on a deployed minimal query, as in runtime_test.cc)

class PassThroughOperator : public core::Operator {
 public:
  void Process(const core::Tuple& input, core::Collector* out) override {
    core::Tuple t = input;
    out->Emit(std::move(t));
  }
  bool IsStateful() const override { return true; }
  double CostMicrosPerTuple() const override { return 10; }
  core::ProcessingState GetProcessingState() const override { return {}; }
  void SetProcessingState(const core::ProcessingState&) override {}
};

class SteadySource : public core::SourceGenerator {
 public:
  explicit SteadySource(double rate) : rate_(rate) {}
  void GenerateBatch(SimTime now, SimTime dt,
                     core::Collector* emit) override {
    const double want = rate_ * SimToSeconds(dt) + carry_;
    const auto n = static_cast<size_t>(want);
    carry_ = want - static_cast<double>(n);
    for (size_t i = 0; i < n; ++i) {
      core::Tuple t;
      t.event_time = now;
      t.key = Mix64(counter_++ % 8);
      emit->Emit(std::move(t));
    }
  }
  double TargetRate(SimTime) const override { return rate_; }

 private:
  double rate_;
  double carry_ = 0;
  uint64_t counter_ = 0;
};

class TallySink : public core::SinkConsumer {
 public:
  explicit TallySink(uint64_t* counter) : counter_(counter) {}
  void Consume(const core::Tuple&, SimTime) override { ++(*counter_); }

 private:
  uint64_t* counter_;
};

struct MiniQuery {
  explicit MiniQuery(ClusterConfig config = {}, double rate = 100) {
    received = std::make_shared<uint64_t>(0);
    source = graph.AddSource("src", [rate](uint32_t, uint32_t) {
      return std::make_unique<SteadySource>(rate);
    });
    op = graph.AddOperator(
        "pass", [] { return std::make_unique<PassThroughOperator>(); },
        /*stateful=*/true);
    sink = graph.AddSink("snk", [r = received] {
      return std::make_unique<TallySink>(r.get());
    });
    SEEP_CHECK(graph.Connect(source, op).ok());
    SEEP_CHECK(graph.Connect(op, sink).ok());
    cluster = std::make_unique<Cluster>(&graph, config);
    control::DeploymentManager deployer(cluster.get());
    SEEP_CHECK(deployer.DeployAll().ok());
  }

  OperatorInstance* InstanceOf(OperatorId id) {
    return cluster->GetInstance(cluster->LiveInstancesOf(id).at(0));
  }

  core::QueryGraph graph;
  OperatorId source, op, sink;
  std::shared_ptr<uint64_t> received;
  std::unique_ptr<Cluster> cluster;
};

TEST(CheckpointPlaneTest, SuspensionFreezesScheduleAndResumeRestartsIt) {
  ClusterConfig config;
  config.checkpoint_interval = SecondsToSim(2);
  MiniQuery q(config);
  auto* sim = q.cluster->simulation();
  auto* metrics = q.cluster->metrics();

  sim->RunUntil(SecondsToSim(5));
  const uint64_t before = metrics->checkpoints_taken;
  EXPECT_GT(before, 0u);

  // While the scale-out coordinator holds the suspension, the periodic
  // timer keeps re-arming but must not emit checkpoint jobs: a fresher
  // checkpoint would trim upstream buffers past the restore point.
  q.InstanceOf(q.op)->SuspendCheckpoints();
  sim->RunUntil(SecondsToSim(15));
  EXPECT_EQ(metrics->checkpoints_taken, before);

  q.InstanceOf(q.op)->ResumeCheckpoints();
  sim->RunUntil(SecondsToSim(25));
  EXPECT_GT(metrics->checkpoints_taken, before);
}

TEST(OperatorInstanceTest, PausedSourceOwesTimeAndCatchesUpOnResume) {
  MiniQuery q({}, /*rate=*/100);
  auto* sim = q.cluster->simulation();
  OperatorInstance* src = q.InstanceOf(q.source);

  sim->RunUntil(SecondsToSim(10));
  const uint64_t at_pause = *q.received;
  src->Pause();
  sim->RunUntil(SecondsToSim(20));
  // Paused: no fresh generation reaches the sink (modulo in-flight tail).
  EXPECT_LT(*q.received - at_pause, 30u);

  // The backlogged interval is owed, not lost: after resume the source
  // emits the catch-up burst and the sink converges to rate * total time.
  src->Resume();
  sim->RunUntil(SecondsToSim(30));
  EXPECT_NEAR(static_cast<double>(*q.received), 3000, 60);
}

// ------------------------------------------------------- EmissionRouter
// (on a deployed query whose downstream runs three instances)

// (origin, timestamp) of each input one downstream instance processed.
using Arrivals = std::vector<std::pair<core::OriginId, int64_t>>;

class RecordingOperator : public core::Operator {
 public:
  explicit RecordingOperator(std::shared_ptr<Arrivals> arrivals)
      : arrivals_(std::move(arrivals)) {}
  void Process(const core::Tuple& input, core::Collector*) override {
    arrivals_->emplace_back(input.origin, input.timestamp);
  }

 private:
  std::shared_ptr<Arrivals> arrivals_;
};

TEST(EmissionRouterTest, ScaledOutDownstreamGetsEveryTupleOnceInOrder) {
  // Each 100 ms source tick is one flush of 200 tuples spread over three
  // downstream instances by key.
  auto per_instance =
      std::make_shared<std::vector<std::shared_ptr<Arrivals>>>();
  core::QueryGraph graph;
  const OperatorId source = graph.AddSource("src", [](uint32_t, uint32_t) {
    return std::make_unique<SteadySource>(2000);
  });
  const OperatorId op = graph.AddOperator(
      "rec",
      [per_instance] {
        per_instance->push_back(std::make_shared<Arrivals>());
        return std::make_unique<RecordingOperator>(per_instance->back());
      },
      /*stateful=*/false);
  auto sunk = std::make_shared<uint64_t>(0);
  const OperatorId sink = graph.AddSink(
      "snk", [sunk] { return std::make_unique<TallySink>(sunk.get()); });
  ASSERT_TRUE(graph.Connect(source, op).ok());
  ASSERT_TRUE(graph.Connect(op, sink).ok());
  sps::SpsConfig config;
  config.scaling.enabled = false;
  // No downstream checkpoint, so no acknowledgement trims the buffer.
  config.cluster.checkpoint_interval = SecondsToSim(1000);
  config.initial_parallelism = {{op, 3}};
  sps::Sps sps(std::move(graph), config);
  ASSERT_TRUE(sps.Deploy().ok());
  ASSERT_EQ(sps.ParallelismOf(op), 3u);

  OperatorInstance* src =
      sps.cluster().GetInstance(sps.cluster().LiveInstancesOf(source).at(0));
  sps.RunFor(5);
  src->Pause();
  sps.RunFor(2);  // drain what is in flight
  const int64_t emitted = src->out_clock();
  ASSERT_GT(emitted, 0);

  // Each instance sees its tuples in timestamp order, and together they
  // see every emission exactly once.
  std::vector<int64_t> arrived;
  size_t reached = 0;
  for (const auto& arrivals : *per_instance) {
    reached += arrivals->empty() ? 0 : 1;
    for (size_t i = 0; i < arrivals->size(); ++i) {
      EXPECT_EQ((*arrivals)[i].first, src->origin());
      if (i > 0) {
        EXPECT_LT((*arrivals)[i - 1].second, (*arrivals)[i].second);
      }
      arrived.push_back((*arrivals)[i].second);
    }
  }
  EXPECT_GE(reached, 2u);
  std::sort(arrived.begin(), arrived.end());
  ASSERT_EQ(arrived.size(), static_cast<size_t>(emitted));
  for (int64_t i = 0; i < emitted; ++i) {
    ASSERT_EQ(arrived[static_cast<size_t>(i)], i + 1);
  }

  // The source's replay buffer holds every emission once, in order.
  const core::TupleBuffer* buffered = src->buffer_state().Get(op);
  ASSERT_NE(buffered, nullptr);
  ASSERT_EQ(buffered->size(), static_cast<size_t>(emitted));
  for (size_t i = 0; i < buffered->size(); ++i) {
    const core::Tuple t = buffered->At(i);
    EXPECT_EQ(t.timestamp, static_cast<int64_t>(i) + 1);
    EXPECT_EQ(t.origin, src->origin());
  }
}

}  // namespace
}  // namespace seep::runtime
