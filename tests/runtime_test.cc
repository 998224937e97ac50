// Runtime-level tests on a minimal deployed query: service-time modelling,
// duplicate filtering, the checkpoint → backup → trim-acknowledgement chain,
// admission control, fences, and checkpoint/restore on a live instance.

#include <gtest/gtest.h>

#include "common/hash.h"
#include "control/deployment_manager.h"
#include "runtime/cluster.h"
#include "runtime/operator_instance.h"

namespace seep::runtime {
namespace {

// A tiny keyed counter operator used as the stateful test subject.
class CountingOperator : public core::Operator {
 public:
  explicit CountingOperator(double cost_us = 10) : cost_us_(cost_us) {}

  void Process(const core::Tuple& input, core::Collector* out) override {
    ++counts_[input.key];
    core::Tuple t;
    t.key = input.key;
    t.event_time = input.event_time;
    t.ints = {static_cast<int64_t>(counts_[input.key]), 0, 0, 0};
    out->Emit(std::move(t));
  }
  bool IsStateful() const override { return true; }
  double CostMicrosPerTuple() const override { return cost_us_; }

  core::ProcessingState GetProcessingState() const override {
    core::ProcessingState state;
    for (const auto& [key, count] : counts_) {
      state.Add(key, std::to_string(count));
    }
    return state;
  }
  void SetProcessingState(const core::ProcessingState& state) override {
    counts_.clear();
    for (const auto& [key, value] : state.entries()) {
      counts_[key] = std::stoull(std::string(value));
    }
  }

 private:
  double cost_us_;
  std::map<KeyHash, uint64_t> counts_;
};

// Source emitting `rate` tuples/s with round-robin keys.
class RoundRobinSource : public core::SourceGenerator {
 public:
  explicit RoundRobinSource(double rate) : rate_(rate) {}
  void GenerateBatch(SimTime now, SimTime dt,
                     core::Collector* emit) override {
    const double want = rate_ * SimToSeconds(dt) + carry_;
    const auto n = static_cast<size_t>(want);
    carry_ = want - static_cast<double>(n);
    for (size_t i = 0; i < n; ++i) {
      core::Tuple t;
      t.event_time = now;
      t.key = Mix64(counter_++ % 16);
      emit->Emit(std::move(t));
    }
  }
  double TargetRate(SimTime) const override { return rate_; }

 private:
  double rate_;
  double carry_ = 0;
  uint64_t counter_ = 0;
};

class CountingSink : public core::SinkConsumer {
 public:
  explicit CountingSink(uint64_t* counter) : counter_(counter) {}
  void Consume(const core::Tuple&, SimTime) override { ++(*counter_); }

 private:
  uint64_t* counter_;
};

struct Harness {
  explicit Harness(ClusterConfig config = {}, double rate = 100,
                   double op_cost_us = 10) {
    received = std::make_shared<uint64_t>(0);
    source = graph.AddSource(
        "src",
        [rate](uint32_t, uint32_t) {
          return std::make_unique<RoundRobinSource>(rate);
        });
    op = graph.AddOperator(
        "count",
        [op_cost_us] { return std::make_unique<CountingOperator>(op_cost_us); },
        /*stateful=*/true);
    sink = graph.AddSink("snk", [r = received] {
      return std::make_unique<CountingSink>(r.get());
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

TEST(RuntimeTest, TuplesFlowEndToEnd) {
  Harness h;
  h.cluster->simulation()->RunUntil(SecondsToSim(10));
  // ~100 tuples/s for 10 s, modulo the first tick and in-flight tail.
  EXPECT_NEAR(static_cast<double>(*h.received), 1000, 20);
  EXPECT_EQ(h.cluster->metrics()->duplicates_dropped, 0u);
}

TEST(RuntimeTest, UtilizationReflectsLoad) {
  // 1000 tuples/s at 100 µs each = 10% utilisation... times queueing; use
  // 500 µs for 50%.
  Harness h({}, /*rate=*/1000, /*op_cost_us=*/500);
  h.cluster->simulation()->RunUntil(SecondsToSim(10));
  OperatorInstance* inst = h.InstanceOf(h.op);
  const double busy = inst->TakeBusyMicros();
  EXPECT_NEAR(busy / static_cast<double>(SecondsToSim(10)), 0.5, 0.05);
}

TEST(RuntimeTest, CheckpointBackupAndTrimChain) {
  ClusterConfig config;
  config.checkpoint_interval = SecondsToSim(2);
  Harness h(config);
  auto* sim = h.cluster->simulation();
  sim->RunUntil(SecondsToSim(1));
  // Before any checkpoint: the source and the operator hold growing buffers.
  OperatorInstance* src = h.InstanceOf(h.source);
  const size_t buffered_early = src->buffer_state().TotalTuples();
  EXPECT_GT(buffered_early, 0u);

  sim->RunUntil(SecondsToSim(11));
  // Checkpoints every 2 s: the operator backed up its state to the source VM
  // and the source trimmed its buffer to the acknowledged positions.
  EXPECT_GT(h.cluster->metrics()->checkpoints_taken, 3u);
  const InstanceId op_instance = h.cluster->LiveInstancesOf(h.op).at(0);
  EXPECT_TRUE(h.cluster->backups()->Has(op_instance));
  EXPECT_EQ(h.cluster->backups()->HolderOf(op_instance), src->id());
  // Buffer holds roughly one checkpoint interval of tuples, not 11 s worth.
  EXPECT_LT(src->buffer_state().TotalTuples(), 450u);
}

TEST(RuntimeTest, CheckpointCarriesProcessingState) {
  ClusterConfig config;
  config.checkpoint_interval = SecondsToSim(2);
  Harness h(config);
  h.cluster->simulation()->RunUntil(SecondsToSim(5));
  const InstanceId op_instance = h.cluster->LiveInstancesOf(h.op).at(0);
  // Find, not Retrieve: the assertions only inspect the stored entry, so
  // there is no reason to copy the whole checkpoint out.
  const auto* entry = h.cluster->backups()->Find(op_instance);
  ASSERT_NE(entry, nullptr);
  // 16 distinct keys have been counted.
  EXPECT_EQ(entry->checkpoint.processing.size(), 16u);
  EXPECT_GT(entry->checkpoint.positions.positions().size(), 0u);
}

TEST(RuntimeTest, MakeCheckpointRestoreRoundtripOnLiveInstance) {
  Harness h;
  auto* sim = h.cluster->simulation();
  sim->RunUntil(SecondsToSim(5));
  OperatorInstance* inst = h.InstanceOf(h.op);
  core::StateCheckpoint ckpt = inst->MakeCheckpoint();
  EXPECT_EQ(ckpt.processing.size(), 16u);
  EXPECT_EQ(ckpt.out_clock, inst->out_clock());

  // Wipe and restore: state and positions come back.
  inst->ResetEmpty(h.cluster->NewOrigin());
  EXPECT_TRUE(inst->MakeCheckpoint().processing.empty());
  inst->Restore(ckpt, /*inherit_origin=*/true);
  EXPECT_EQ(inst->MakeCheckpoint().processing.size(), 16u);
  EXPECT_EQ(inst->origin(), ckpt.origin);
  EXPECT_EQ(inst->out_clock(), ckpt.out_clock);
}

TEST(RuntimeTest, DuplicateTimestampsAreDropped) {
  Harness h;
  auto* sim = h.cluster->simulation();
  sim->RunUntil(SecondsToSim(2));
  OperatorInstance* op = h.InstanceOf(h.op);
  const uint64_t processed_before = op->processed_tuples();

  // Hand-craft a duplicate batch from the source's already-sent range.
  OperatorInstance* src = h.InstanceOf(h.source);
  core::TupleBatch dup;
  core::Tuple t;
  t.origin = src->origin();
  t.timestamp = 1;  // long since processed
  t.key = Mix64(1);
  dup.tuples.push_back(t);
  op->OnBatch(std::move(dup));
  sim->RunUntil(SecondsToSim(3));
  EXPECT_EQ(h.cluster->metrics()->duplicates_dropped, 1u);
  EXPECT_GT(op->processed_tuples(), processed_before);
}

TEST(RuntimeTest, AdmissionControlDropsBeyondQueueLimit) {
  ClusterConfig config;
  config.max_queue_tuples = 50;
  // Operator far too slow for the offered rate.
  Harness h(config, /*rate=*/1000, /*op_cost_us=*/100000);
  h.cluster->simulation()->RunUntil(SecondsToSim(5));
  EXPECT_GT(h.cluster->metrics()->dropped_tuples.total(), 0u);
}

TEST(RuntimeTest, ReplayBatchesBypassAdmission) {
  ClusterConfig config;
  config.max_queue_tuples = 10;
  Harness h(config, /*rate=*/1, /*op_cost_us=*/1000000);
  auto* sim = h.cluster->simulation();
  OperatorInstance* op = h.InstanceOf(h.op);
  core::TupleBatch big;
  big.replay = true;
  for (int i = 0; i < 1000; ++i) {
    core::Tuple t;
    t.origin = 1234;
    t.timestamp = i + 1;
    big.tuples.push_back(t);
  }
  op->OnBatch(std::move(big));
  sim->RunUntil(SecondsToSim(1));
  EXPECT_GE(op->queued_tuples() + op->processed_tuples(), 900u);
}

TEST(RuntimeTest, FenceCompletesAfterQueuedWork) {
  Harness h;
  auto* sim = h.cluster->simulation();
  sim->RunUntil(SecondsToSim(1));
  OperatorInstance* op = h.InstanceOf(h.op);

  SimTime fence_done = -1;
  const uint64_t fence = h.cluster->fences()->Register(
      1, {op->id()}, [&](SimTime at) { fence_done = at; });
  core::TupleBatch marker;
  marker.fence_id = fence;
  op->OnBatch(std::move(marker));
  sim->RunUntil(SecondsToSim(2));
  EXPECT_GE(fence_done, SecondsToSim(1));
}

TEST(RuntimeTest, KillVmDropsInstanceAndBackupsHeldThere) {
  ClusterConfig config;
  config.checkpoint_interval = SecondsToSim(1);
  Harness h(config);
  auto* sim = h.cluster->simulation();
  sim->RunUntil(SecondsToSim(5));
  const InstanceId op_instance = h.cluster->LiveInstancesOf(h.op).at(0);
  OperatorInstance* src = h.InstanceOf(h.source);
  ASSERT_TRUE(h.cluster->backups()->Has(op_instance));

  // Killing the source VM loses the checkpoint stored there.
  ASSERT_TRUE(h.cluster->membership()->KillVm(src->vm()).ok());
  EXPECT_FALSE(h.cluster->backups()->Has(op_instance));
  EXPECT_FALSE(src->alive());
  EXPECT_EQ(src->died_at(), SecondsToSim(5));
  EXPECT_TRUE(h.cluster->LiveInstancesOf(h.source).empty());
}

TEST(RuntimeTest, PauseHoldsWorkAndResumeDrains) {
  Harness h;
  auto* sim = h.cluster->simulation();
  sim->RunUntil(SecondsToSim(1));
  OperatorInstance* op = h.InstanceOf(h.op);
  const uint64_t before = op->processed_tuples();
  op->Pause();
  sim->RunUntil(SecondsToSim(3));
  // At most the in-flight job finished after the pause.
  EXPECT_LE(op->processed_tuples(), before + 32);
  EXPECT_GT(op->queued_tuples(), 0u);
  op->Resume();
  sim->RunUntil(SecondsToSim(4));
  EXPECT_GT(op->processed_tuples(), before + 100);
}

TEST(RuntimeTest, StoppedInstanceIgnoresTraffic) {
  Harness h;
  auto* sim = h.cluster->simulation();
  sim->RunUntil(SecondsToSim(1));
  OperatorInstance* op = h.InstanceOf(h.op);
  op->Stop();
  const uint64_t before = op->processed_tuples();
  sim->RunUntil(SecondsToSim(3));
  EXPECT_EQ(op->processed_tuples(), before);
  EXPECT_EQ(op->queued_tuples(), 0u);
}

}  // namespace
}  // namespace seep::runtime
