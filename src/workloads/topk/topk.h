#ifndef SEEP_WORKLOADS_TOPK_TOPK_H_
#define SEEP_WORKLOADS_TOPK_TOPK_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "core/operator.h"
#include "core/query_graph.h"
#include "serde/encoder.h"

namespace seep::workloads::topk {

/// Parameters of the map/reduce-style top-k query over a synthetic
/// Wikipedia page-view trace (paper §6.1, open-loop workload): every 30 s,
/// rank the most visited language editions.
struct TopKConfig {
  /// Total offered rate across all sources, tuples/second. The paper's run
  /// settles at 550,000 t/s; scaled runs use proportionally smaller rates.
  double total_rate_tuples_per_sec = 20000;
  /// Number of parallel data sources (paper: 18).
  uint32_t num_sources = 18;
  /// Number of language editions and the Zipf skew of their popularity.
  size_t num_languages = 300;
  double zipf_skew = 1.0;
  /// Ranking window and cut-off.
  SimTime window = SecondsToSim(30);
  size_t k = 10;

  uint64_t seed = 2;
  double source_cost_us = 1.0;
  double map_cost_us = 2.0;
  double reduce_cost_us = 5.0;
  double sink_cost_us = 0.5;
};

/// Emits raw page-view records: language id plus junk fields the mapper
/// strips (the paper's map "removes unnecessary fields from tuples").
class PageViewSource : public core::SourceGenerator {
 public:
  PageViewSource(const TopKConfig& config, uint32_t index, uint32_t count);

  void GenerateBatch(SimTime now, SimTime dt, core::Collector* emit) override;
  double TargetRate(SimTime now) const override;

 private:
  TopKConfig config_;
  uint32_t count_;
  Rng rng_;
  ZipfDistribution language_rank_;  // over config_.num_languages
  double carry_ = 0;
};

/// Stateless projection: drops the junk payload, keeps the language key.
class MapProject : public core::Operator {
 public:
  explicit MapProject(double cost_us) : cost_us_(cost_us) {}
  void Process(const core::Tuple& input, core::Collector* out) override;
  double CostMicrosPerTuple() const override { return cost_us_; }

 private:
  double cost_us_;
};

/// Stateful reducer: per-language visit counts per event-time window;
/// emits (window, language, count) partials at each window close, which the
/// sink merges into the final top-k ranking (paper: "when the reducer
/// scales out, we use the sink to aggregate the partial results").
class TopKReducer : public core::Operator {
 public:
  explicit TopKReducer(const TopKConfig& config) : config_(config) {}

  void Process(const core::Tuple& input, core::Collector* out) override;
  bool IsStateful() const override { return true; }
  core::ProcessingState GetProcessingState() const override;
  void SetProcessingState(const core::ProcessingState& state) override;
  bool SupportsIncrementalState() const override { return true; }
  core::StateDelta TakeProcessingStateDelta() override;
  void ClearStateDelta() override;
  double CostMicrosPerTuple() const override { return config_.reduce_cost_us; }
  SimTime TimerInterval() const override { return config_.window; }
  void OnTimer(SimTime now, core::Collector* out) override;

  /// Adds the counts of another partition's state to this one, language by
  /// language and window by window (scale-in merge, paper §3.3); merged
  /// languages count as dirty for the next delta.
  void MergeProcessingState(const core::ProcessingState& state);

 private:
  struct Cell {
    int64_t count = 0;
    int64_t emitted = 0;  // count at the last partial emission
  };
  using Windows = std::map<int64_t, Cell>;  // window id -> cell

  /// One externalised state entry (all windows of one language), encoded in
  /// the caller's scratch encoder; the view dies with its next Clear().
  static std::string_view EncodeLanguageEntry(int64_t lang,
                                              const Windows& windows,
                                              serde::Encoder* enc);
  /// The language's windows, created empty on first sight; the language is
  /// dirty for the next delta.
  Windows& DirtyWindows(int64_t lang);

  TopKConfig config_;
  // Languages changed / vanished since the last delta or full checkpoint; a
  // language with counts is never in removed_languages_.
  std::set<int64_t> dirty_languages_;
  std::set<int64_t> removed_languages_;
  std::map<int64_t, Windows> counts_;  // language id -> windows
};

/// Merges partial counts and materialises the per-window top-k ranking.
class TopKSink : public core::SinkConsumer {
 public:
  struct Results {
    // window id -> language id -> count (max-merged partials).
    std::map<int64_t, std::map<int64_t, int64_t>> counts;
    uint64_t tuples_seen = 0;

    /// Top-k languages of a window, most visited first.
    std::vector<std::pair<int64_t, int64_t>> TopK(int64_t window,
                                                  size_t k) const;
  };

  explicit TopKSink(std::shared_ptr<Results> results)
      : results_(std::move(results)) {}

  void Consume(const core::Tuple& tuple, SimTime now) override;

 private:
  std::shared_ptr<Results> results_;
};

struct TopKQuery {
  core::QueryGraph graph;
  OperatorId source = 0;
  OperatorId map = 0;
  OperatorId reduce = 0;
  OperatorId sink = 0;
  std::shared_ptr<TopKSink::Results> results;
};

/// Builds sources[N] → map → reduce → sink.
TopKQuery BuildTopKQuery(const TopKConfig& config);

}  // namespace seep::workloads::topk

#endif  // SEEP_WORKLOADS_TOPK_TOPK_H_
