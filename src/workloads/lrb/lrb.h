#ifndef SEEP_WORKLOADS_LRB_LRB_H_
#define SEEP_WORKLOADS_LRB_LRB_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/operator.h"
#include "core/query_graph.h"
#include "serde/encoder.h"

namespace seep::workloads::lrb {

/// Tuple type tags carried in ints[0].
enum LrbTupleType : int64_t {
  kPositionReport = 0,
  kBalanceQuery = 2,
  kTollCharge = 10,
  kTollNotification = 11,
  kAccidentAlert = 12,
  kBalanceAnswer = 13,
};

/// Field packing helpers. Position report:
///   ints = [type, vehicle, xway*1000 + segment, speed*4 + entering*2 +
///           stopped*1]; balance query: ints = [type, vehicle, query id, 0].
constexpr int64_t PackLocation(int64_t xway, int64_t segment) {
  return xway * 1000 + segment;
}
constexpr int64_t LocationXway(int64_t loc) { return loc / 1000; }
constexpr int64_t LocationSegment(int64_t loc) { return loc % 1000; }
constexpr int64_t PackSpeed(int64_t speed, bool entering, bool stopped) {
  return speed * 4 + (entering ? 2 : 0) + (stopped ? 1 : 0);
}
constexpr int64_t SpeedOf(int64_t packed) { return packed / 4; }
constexpr bool IsEntering(int64_t packed) { return (packed & 2) != 0; }
constexpr bool IsStopped(int64_t packed) { return (packed & 1) != 0; }

/// Linear Road parameters. The paper (and the LRB spec [5]) ramps the input
/// of one express-way from 15 to ~1700 tuples/s over three hours; we
/// compress the ramp into `duration_s` and replicate it for `num_xways`
/// express-ways, exactly as the paper replicates its precomputed L=1 stream.
/// `load_scale` divides rates and multiplies per-tuple costs by the same
/// factor, preserving VM demand (and hence the scale-out trajectory) while
/// keeping simulated tuple counts tractable.
struct LrbConfig {
  uint32_t num_xways = 4;  // the L factor
  double duration_s = 600;
  /// Length of the rate ramp; 0 means the ramp spans the whole duration
  /// (the paper's Fig. 6 setting). A shorter ramp leaves a steady-state
  /// plateau, useful for latency measurements at a fixed load.
  double ramp_duration_s = 0;
  double initial_rate_per_xway = 34;
  double peak_rate_per_xway = 1714;
  double ramp_exponent = 2.5;
  double load_scale = 1.0;

  uint32_t segments_per_xway = 100;
  double report_interval_s = 30;  // every vehicle reports each 30 s
  double balance_query_fraction = 0.01;
  /// Probability per express-way per second that an accident starts.
  double accident_rate_per_sec = 0.001;
  double accident_duration_s = 90;

  uint32_t num_sources = 1;
  uint64_t seed = 3;

  // Per-tuple CPU costs on the reference core, µs (before load_scale).
  // Calibrated so the toll calculator is the dominant bottleneck, the
  // forwarder second — matching the paper's observed partitioning order —
  // and sources/sinks saturate around 600k tuples/s (serialisation).
  double source_cost_us = 1.67;
  double forwarder_cost_us = 15;
  double toll_calc_cost_us = 45;
  double assessment_cost_us = 30;
  double collector_cost_us = 5;
  double balance_cost_us = 10;
  double sink_cost_us = 1.67;

  /// Effective per-tuple cost after load scaling.
  double ScaledCost(double cost_us) const { return cost_us * load_scale; }
  double ScaledRatePerXway(double t_seconds) const;
};

/// Synthetic express-way traffic: vehicles report every 30 s advancing one
/// segment per period; congestion (density-dependent speed), accidents
/// (stopped vehicles) and balance queries are generated statistically.
class LrbSource : public core::SourceGenerator {
 public:
  LrbSource(const LrbConfig& config, uint32_t index, uint32_t count);

  void GenerateBatch(SimTime now, SimTime dt, core::Collector* emit) override;
  double TargetRate(SimTime now) const override;

 private:
  struct Accident {
    int64_t segment = 0;
    SimTime until = 0;
  };

  LrbConfig config_;
  uint32_t index_;
  uint32_t count_;
  Rng rng_;
  double carry_ = 0;
  int64_t query_counter_ = 0;
  std::map<int64_t, Accident> accidents_;  // per xway
};

/// Stateless router: position reports (keyed by segment) to the toll
/// calculator, balance queries (keyed by vehicle) to toll assessment.
class Forwarder : public core::Operator {
 public:
  explicit Forwarder(double cost_us) : cost_us_(cost_us) {}
  void Process(const core::Tuple& input, core::Collector* out) override;
  double CostMicrosPerTuple() const override { return cost_us_; }

 private:
  double cost_us_;
};

/// Stateful per-segment operator: maintains per-minute vehicle counts and
/// average speeds, detects accidents (>= 2 distinct stopped vehicles), and
/// on segment entry computes the LRB toll 2*(count-50)^2 when the previous
/// minute was congested. Emits toll notifications/accident alerts (port 0,
/// to the collector) and toll charges (port 1, to assessment).
class TollCalculator : public core::Operator {
 public:
  /// `count_scale` compensates load-scaled runs: the observed per-minute
  /// report counts are multiplied by it before applying the LRB congestion
  /// threshold and toll formula, so a 1/64-sampled stream still produces the
  /// tolls of the full-rate stream.
  explicit TollCalculator(double cost_us, double count_scale = 1.0)
      : cost_us_(cost_us), count_scale_(count_scale) {}

  void Process(const core::Tuple& input, core::Collector* out) override;
  bool IsStateful() const override { return true; }
  core::ProcessingState GetProcessingState() const override;
  void SetProcessingState(const core::ProcessingState& state) override;
  double CostMicrosPerTuple() const override { return cost_us_; }

 private:
  struct MinuteStats {
    int64_t minute = 0;
    int64_t count = 0;  // position reports
    int64_t speed_sum = 0;
  };
  struct SegmentState {
    int64_t loc = 0;  // packed location
    KeyHash key = 0;  // Mix64(loc): the segment's state entry key
    bool accident = false;
    // Ascending by minute; garbage collection keeps about six live.
    std::vector<MinuteStats> minutes;
    std::vector<int64_t> stopped_vehicles;  // ascending vehicle ids
    // The segment's state entry as the last capture encoded it, valid
    // unless a tuple was processed since: a capture re-encodes only the
    // dirty segments, each straight into this cache.
    mutable bool dirty = true;
    mutable serde::Encoder encoded;
  };

  /// The segment at `loc`, created empty on first sight.
  SegmentState& SegmentAt(int64_t loc);

  double cost_us_;
  double count_scale_;
  // Segments are never dropped, so they live in one dense vector in the
  // order they were first seen, found by location through the index.
  std::vector<SegmentState> segments_;
  std::unordered_map<int64_t, uint32_t> slot_of_;  // loc -> segments_ index
  // segments_ indices ascending by key, so the capture adds entries in
  // ProcessingState order and nothing sorts them. Segments are only ever
  // appended, so the capture merges in the slots past key_order_.size().
  mutable std::vector<uint32_t> key_order_;
  // The bytes of every segment's cached entry, kept as they are re-encoded:
  // a capture's arena is reserved to exactly this.
  mutable size_t cached_bytes_ = 0;
};

/// Stateful per-vehicle account: accumulates toll charges (complete-history
/// state — the reason upstream backup cannot recover this operator) and
/// answers balance queries.
class TollAssessment : public core::Operator {
 public:
  explicit TollAssessment(double cost_us) : cost_us_(cost_us) {}

  void Process(const core::Tuple& input, core::Collector* out) override;
  bool IsStateful() const override { return true; }
  core::ProcessingState GetProcessingState() const override;
  void SetProcessingState(const core::ProcessingState& state) override;
  bool SupportsIncrementalState() const override { return true; }
  core::StateDelta TakeProcessingStateDelta() override;
  void ClearStateDelta() override { dirty_vehicles_.clear(); }
  double CostMicrosPerTuple() const override { return cost_us_; }

 private:
  /// One vehicle's state entry, encoded in the caller's scratch encoder;
  /// the view dies with its next Clear().
  static std::string_view EncodeBalance(int64_t vid, int64_t balance,
                                        serde::Encoder* enc);

  double cost_us_;
  std::map<int64_t, int64_t> balances_;  // vehicle -> accumulated tolls
  std::set<int64_t> dirty_vehicles_;     // charged since the last checkpoint
};

/// Stateless gatherer of toll notifications and accident alerts.
class TollCollector : public core::Operator {
 public:
  explicit TollCollector(double cost_us) : cost_us_(cost_us) {}
  void Process(const core::Tuple& input, core::Collector* out) override;
  double CostMicrosPerTuple() const override { return cost_us_; }

 private:
  double cost_us_;
};

/// Stateful aggregation of balance answers (per-vehicle latest balance).
class BalanceAccount : public core::Operator {
 public:
  explicit BalanceAccount(double cost_us) : cost_us_(cost_us) {}

  void Process(const core::Tuple& input, core::Collector* out) override;
  bool IsStateful() const override { return true; }
  core::ProcessingState GetProcessingState() const override;
  void SetProcessingState(const core::ProcessingState& state) override;
  double CostMicrosPerTuple() const override { return cost_us_; }

 private:
  double cost_us_;
  std::map<int64_t, std::pair<int64_t, int64_t>> latest_;  // vid -> (qid, bal)
};

/// Tallies result tuples by type for validation.
class LrbSink : public core::SinkConsumer {
 public:
  struct Results {
    uint64_t toll_notifications = 0;
    uint64_t accident_alerts = 0;
    uint64_t balance_answers = 0;
    int64_t total_tolls_charged = 0;
  };

  explicit LrbSink(std::shared_ptr<Results> results)
      : results_(std::move(results)) {}

  void Consume(const core::Tuple& tuple, SimTime now) override;

 private:
  std::shared_ptr<Results> results_;
};

/// The 7-operator LRB query of paper Fig. 5.
struct LrbQuery {
  core::QueryGraph graph;
  OperatorId feeder = 0;
  OperatorId forwarder = 0;
  OperatorId toll_calculator = 0;
  OperatorId toll_assessment = 0;
  OperatorId toll_collector = 0;
  OperatorId balance_account = 0;
  OperatorId sink = 0;
  std::shared_ptr<LrbSink::Results> results;
};

LrbQuery BuildLrbQuery(const LrbConfig& config);

}  // namespace seep::workloads::lrb

#endif  // SEEP_WORKLOADS_LRB_LRB_H_
