// Linear Road with dynamic scale out, checked against an exact reference.
// Every scale out partitions a toll calculator's captured state (Algorithm 2)
// and restores the partitions on new VMs; the query's result totals are
// per-key aggregates, so a partitioned execution must produce exactly the
// totals of one instance of every operator fed the same tuples one at a
// time. A capture, a partitioning or a restore that loses or double-counts
// a minute of a segment changes the tolls.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sps/sps.h"
#include "workloads/lrb/lrb.h"

namespace seep {
namespace {

using workloads::lrb::LrbConfig;
using workloads::lrb::LrbSink;
using Results = LrbSink::Results;

constexpr double kStopS = 400;   // end of the ramp: the source goes quiet
constexpr double kDrainS = 60;   // then every result becomes final

/// Passes emissions on and keeps a copy of each.
class RecordingCollector final : public core::Collector {
 public:
  RecordingCollector(core::Collector* next, std::vector<core::Tuple>* log)
      : next_(next), log_(log) {}
  void EmitTo(int port, core::Tuple tuple) override {
    log_->push_back(tuple);
    next_->EmitTo(port, std::move(tuple));
  }

 private:
  core::Collector* next_;
  std::vector<core::Tuple>* log_;
};

/// Wraps a source: records every tuple it emits, and goes quiet from
/// `stop_at` on.
class RecordedSource final : public core::SourceGenerator {
 public:
  RecordedSource(std::unique_ptr<core::SourceGenerator> inner, SimTime stop_at,
                 std::shared_ptr<std::vector<core::Tuple>> log)
      : inner_(std::move(inner)), stop_at_(stop_at), log_(std::move(log)) {}

  void GenerateBatch(SimTime now, SimTime dt, core::Collector* emit) override {
    if (now >= stop_at_) return;
    RecordingCollector recorder(emit, log_.get());
    inner_->GenerateBatch(now, dt, &recorder);
  }
  double TargetRate(SimTime now) const override {
    return now >= stop_at_ ? 0 : inner_->TargetRate(now);
  }

 private:
  std::unique_ptr<core::SourceGenerator> inner_;
  SimTime stop_at_;
  std::shared_ptr<std::vector<core::Tuple>> log_;
};

/// `graph` with every source wrapped in a RecordedSource; vertex ids and
/// each vertex's port order are kept.
core::QueryGraph WithRecordedSources(
    const core::QueryGraph& graph,
    const std::shared_ptr<std::vector<core::Tuple>>& log) {
  core::QueryGraph out;
  const SimTime stop_at = SecondsToSim(kStopS);
  for (const core::OperatorSpec& spec : graph.operators()) {
    switch (spec.kind) {
      case core::VertexKind::kSource:
        out.AddSource(
            spec.name,
            [inner = spec.source_factory, stop_at, log](uint32_t i,
                                                        uint32_t n) {
              return std::make_unique<RecordedSource>(inner(i, n), stop_at,
                                                      log);
            },
            spec.endpoint_cost_us, spec.source_parallelism);
        break;
      case core::VertexKind::kOperator:
        out.AddOperator(spec.name, spec.factory, spec.stateful, spec.scalable);
        break;
      case core::VertexKind::kSink:
        out.AddSink(spec.name, spec.sink_factory, spec.endpoint_cost_us);
        break;
    }
  }
  for (const core::OperatorSpec& spec : graph.operators()) {
    for (OperatorId to : graph.Downstream(spec.id)) {
      EXPECT_TRUE(out.Connect(spec.id, to).ok());
    }
  }
  return out;
}

/// The query executed one tuple at a time, depth first, with one instance
/// of every operator: per-key order matches any partitioned execution, and
/// every LRB result total is a per-key aggregate.
Results Reference(const LrbConfig& lrb, const std::vector<core::Tuple>& input) {
  workloads::lrb::LrbQuery query = workloads::lrb::BuildLrbQuery(lrb);
  auto results = std::make_shared<Results>();
  LrbSink sink(results);
  const core::QueryGraph& graph = query.graph;
  using OpMap = std::map<OperatorId, std::unique_ptr<core::Operator>>;
  OpMap ops;
  for (const core::OperatorSpec& spec : graph.operators()) {
    if (spec.kind == core::VertexKind::kOperator) ops[spec.id] = spec.factory();
  }

  struct Dispatch final : core::Collector {
    Dispatch(const core::QueryGraph* graph, OpMap* ops, LrbSink* sink,
             OperatorId from)
        : graph(graph), ops(ops), sink(sink), from(from) {}
    void EmitTo(int port, core::Tuple tuple) override {
      const OperatorId to = graph->Downstream(from).at(port);
      if (graph->Get(to)->kind == core::VertexKind::kSink) {
        sink->Consume(tuple, tuple.event_time);
        return;
      }
      Dispatch next(graph, ops, sink, to);
      ops->at(to)->Process(tuple, &next);
    }
    const core::QueryGraph* graph;
    OpMap* ops;
    LrbSink* sink;
    OperatorId from;
  };
  Dispatch from_source(&graph, &ops, &sink, query.feeder);
  for (const core::Tuple& t : input) from_source.EmitTo(0, t);
  return *results;
}

/// integration_lrb_test's DynamicScaleOutTracksTheRamp, with accidents
/// likely enough to raise alerts in a 400 s run.
LrbConfig RampLrb(uint64_t seed) {
  LrbConfig lrb;
  lrb.num_xways = 2;
  lrb.duration_s = kStopS;
  lrb.initial_rate_per_xway = 50;
  lrb.peak_rate_per_xway = 600;
  lrb.toll_calc_cost_us = 2500;
  lrb.forwarder_cost_us = 900;
  lrb.assessment_cost_us = 400;
  lrb.accident_rate_per_sec = 0.01;
  lrb.seed = seed;
  return lrb;
}

class LrbReferenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LrbReferenceTest, ScaledOutTotalsEqualTheReference) {
  const LrbConfig lrb = RampLrb(GetParam());
  workloads::lrb::LrbQuery query = workloads::lrb::BuildLrbQuery(lrb);
  auto results = query.results;
  auto input = std::make_shared<std::vector<core::Tuple>>();

  sps::SpsConfig config;
  config.scaling.enabled = true;
  config.scaling.threshold = 0.7;
  config.cluster.pool.target_size = 4;
  config.cluster.audit_level = verify::kAuditExpensive;
  sps::Sps sps(WithRecordedSources(query.graph, input), config);
  ASSERT_TRUE(sps.Deploy().ok());
  sps.RunFor(kStopS + kDrainS);

  // The reference sees every tuple the source generated, so none may have
  // been cut by source saturation.
  ASSERT_EQ(sps.metrics().source_saturated_ticks, 0u);
  ASSERT_FALSE(input->empty());
  // Aborted plans are allowed (they are compensated); committed scale outs
  // are what this test is about.
  EXPECT_GE(sps.metrics().scale_outs.size(), 2u);

  const Results want = Reference(lrb, *input);
  EXPECT_GT(want.total_tolls_charged, 0);
  EXPECT_EQ(results->total_tolls_charged, want.total_tolls_charged);
  EXPECT_EQ(results->toll_notifications, want.toll_notifications);
  EXPECT_EQ(results->accident_alerts, want.accident_alerts);
  EXPECT_EQ(results->balance_answers, want.balance_answers);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LrbReferenceTest, ::testing::Values(5, 6, 7));

}  // namespace
}  // namespace seep
