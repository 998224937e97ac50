// Distribution-guided partitioning ablation (Algorithm 2: "the key space
// can be distributed evenly using hash partitioning, or the key
// distribution can be used to guide the split"). When keys are NOT
// pre-hashed — e.g. an application partitions on raw identifiers that
// occupy a narrow band of the key space — an even hash split puts all the
// state and load in one partition. Splitting at the quantiles of the
// checkpointed state keys fixes the balance.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "runtime/operator_instance.h"
#include "common/hash.h"
#include "common/rng.h"

namespace seep::bench {
namespace {

// Source emitting raw (unhashed) keys drawn from a narrow band of the key
// space, mimicking an application that partitions on natural identifiers.
class NarrowKeySource : public core::SourceGenerator {
 public:
  NarrowKeySource(double rate, uint64_t seed) : rate_(rate), rng_(seed) {}

  void GenerateBatch(SimTime now, SimTime dt, core::Collector* emit) override {
    const double want = rate_ * SimToSeconds(dt) + carry_;
    const auto n = static_cast<size_t>(want);
    carry_ = want - static_cast<double>(n);
    for (size_t i = 0; i < n; ++i) {
      core::Tuple t;
      t.event_time = now;
      // Raw identifiers in [0, 2^44): the top 99.99...% of the hash space
      // is empty.
      t.key = rng_.NextBounded(1ull << 44);
      emit->Emit(std::move(t));
    }
  }
  double TargetRate(SimTime) const override { return rate_; }

 private:
  double rate_;
  Rng rng_;
  double carry_ = 0;
};

// Keyed counter with externalised per-key state.
class KeyCounter : public core::Operator {
 public:
  void Process(const core::Tuple& input, core::Collector* out) override {
    ++counts_[input.key];
  }
  bool IsStateful() const override { return true; }
  double CostMicrosPerTuple() const override { return 400; }
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
  std::map<KeyHash, uint64_t> counts_;
};

class NullSink : public core::SinkConsumer {
 public:
  void Consume(const core::Tuple&, SimTime) override {}
};

struct SplitResult {
  double max_share = 0;  // share of post-split tuples at the hottest part
  double p95_ms = 0;
  uint32_t partitions = 0;
};

SplitResult RunSplit(bool balanced) {
  core::QueryGraph graph;
  const OperatorId source = graph.AddSource(
      "narrow-source",
      [](uint32_t, uint32_t) {
        return std::make_unique<NarrowKeySource>(2000, 3);
      });
  const OperatorId counter = graph.AddOperator(
      "key-counter", [] { return std::make_unique<KeyCounter>(); },
      /*stateful=*/true);
  const OperatorId sink =
      graph.AddSink("sink", [] { return std::make_unique<NullSink>(); });
  SEEP_CHECK(graph.Connect(source, counter).ok());
  SEEP_CHECK(graph.Connect(counter, sink).ok());

  sps::SpsConfig config;
  config.coordinator.balanced_split = balanced;
  config.scaling.enabled = true;  // 2000 t/s x 400 µs = 80%: will scale out
  config.cluster.pool.target_size = 4;
  sps::Sps sps(std::move(graph), config);
  SEEP_CHECK(sps.Deploy().ok());
  sps.RunFor(120);

  // Measure the post-split distribution of processed tuples.
  SplitResult out;
  uint64_t total = 0, max_processed = 0;
  for (InstanceId id : sps.cluster().LiveInstancesOf(counter)) {
    const auto* inst = sps.cluster().GetInstance(id);
    total += inst->processed_tuples();
    max_processed = std::max(max_processed, inst->processed_tuples());
    ++out.partitions;
  }
  out.max_share = total == 0 ? 0
                             : static_cast<double>(max_processed) /
                                   static_cast<double>(total);
  out.p95_ms = sps.metrics().latency_ms.Percentile(95);
  return out;
}

void BM_AblationBalancedSplit(benchmark::State& state) {
  for (auto _ : state) {
    Banner("Ablation (Alg. 2)",
           "Even hash split vs distribution-guided split on unhashed "
           "narrow-band keys");
    std::printf("%-12s %12s %18s\n", "split", "partitions",
                "hottest share(%)");
    const SplitResult even = RunSplit(false);
    const SplitResult balanced = RunSplit(true);
    std::printf("%-12s %12u %18.1f\n", "even-hash", even.partitions,
                even.max_share * 100);
    std::printf("%-12s %12u %18.1f\n", "balanced", balanced.partitions,
                balanced.max_share * 100);
    std::printf("(expected: the even split leaves ~100%% of tuples on one "
                "partition — all keys fall in its subrange — while the "
                "balanced split divides them)\n");
    state.counters["even_hot_share"] = even.max_share;
    state.counters["balanced_hot_share"] = balanced.max_share;
  }
}

BENCHMARK(BM_AblationBalancedSplit)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace
}  // namespace seep::bench

BENCHMARK_MAIN();
