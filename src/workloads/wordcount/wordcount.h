#ifndef SEEP_WORKLOADS_WORDCOUNT_WORDCOUNT_H_
#define SEEP_WORKLOADS_WORDCOUNT_WORDCOUNT_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/operator.h"
#include "core/query_graph.h"
#include "serde/encoder.h"

namespace seep::workloads::wordcount {

/// Parameters of the windowed word frequency query (paper §6.2): a stream of
/// ~140-byte sentence fragments through a stateless word splitter into a
/// stateful word counter with a 30 s window.
struct WordCountConfig {
  /// Sentence tuples per second offered by the source.
  double rate_tuples_per_sec = 500;
  /// Optional time-varying rate (tuples/s as a function of seconds); when
  /// set it overrides rate_tuples_per_sec. Used by elasticity experiments
  /// (load waves that trigger scale out and scale in).
  std::function<double(double)> rate_fn;
  /// Distinct words — the state-size knob of Fig. 14 (10^2 / 10^4 / 10^5).
  size_t vocabulary = 1000;
  /// Words per sentence; ~20 seven-byte words ≈ the paper's 140 B fragments.
  size_t words_per_sentence = 20;
  /// Zipf skew of word frequencies.
  double zipf_skew = 0.9;
  /// Tumbling window length.
  SimTime window = SecondsToSim(30);
  /// How many completed windows the counter retains for late/replayed
  /// tuples before discarding.
  int retained_windows = 2;
  /// The counter emits a sampled per-input "probe" update every N inputs so
  /// sinks observe per-tuple processing latency (Fig. 14/15), in addition to
  /// final counts at each window close.
  uint32_t probe_every_n = 10;

  uint64_t seed = 1;
  double source_cost_us = 1.0;
  double splitter_cost_us = 2.0;
  double counter_cost_us = 6.0;
  double sink_cost_us = 0.5;
};

/// Generates random sentences from the configured vocabulary.
class SentenceSource : public core::SourceGenerator {
 public:
  SentenceSource(const WordCountConfig& config, uint32_t index,
                 uint32_t count);

  void GenerateBatch(SimTime now, SimTime dt, core::Collector* emit) override;
  double TargetRate(SimTime now) const override;

  /// Appends the word with this vocabulary index ("w0", "w1", ...).
  static void AppendWord(std::string* out, size_t index);

  /// The word with this vocabulary index.
  static std::string WordAt(size_t index) {
    std::string word;
    AppendWord(&word, index);
    return word;
  }

 private:
  WordCountConfig config_;
  uint32_t count_;
  Rng rng_;
  ZipfDistribution word_rank_;  // over config_.vocabulary
  double carry_ = 0;            // fractional tuples carried between ticks
};

/// Stateless tokeniser: one input sentence → one output tuple per word,
/// keyed by the word hash (the running example of paper Fig. 2).
class WordSplitter : public core::Operator {
 public:
  explicit WordSplitter(double cost_us) : cost_us_(cost_us) {}

  void Process(const core::Tuple& input, core::Collector* out) override;
  double CostMicrosPerTuple() const override { return cost_us_; }

 private:
  double cost_us_;
};

/// Stateful windowed frequency counter. Windows are derived from tuple
/// *event time*, so re-processing replayed tuples after recovery rebuilds
/// identical windows. Emits, per closed window and word, a final cumulative
/// count (ints: [window, count, 1]); additionally emits sampled per-input
/// probe updates (ints: [window, count, 0]) for latency measurement.
class WordCounter : public core::Operator {
 public:
  explicit WordCounter(const WordCountConfig& config) : config_(config) {}
  // dirty_ points into counts_, so a copy would point into the original.
  WordCounter(const WordCounter&) = delete;
  WordCounter& operator=(const WordCounter&) = delete;

  void Process(const core::Tuple& input, core::Collector* out) override;
  bool IsStateful() const override { return true; }
  core::ProcessingState GetProcessingState() const override;
  void SetProcessingState(const core::ProcessingState& state) override;
  bool SupportsIncrementalState() const override { return true; }
  core::StateDelta TakeProcessingStateDelta() override;
  void ClearStateDelta() override;
  double CostMicrosPerTuple() const override { return config_.counter_cost_us; }
  SimTime TimerInterval() const override { return config_.window; }
  void OnTimer(SimTime now, core::Collector* out) override;

  /// Adds the counts of another partition's state to this one, word by
  /// word and window by window (scale-in merge, paper §3.3); merged words
  /// count as dirty for the next delta.
  void MergeProcessingState(const core::ProcessingState& state);

  /// Number of (word, window) count cells currently held.
  size_t StateCells() const;

 private:
  struct Cell {
    int64_t count = 0;
    int64_t emitted = 0;  // count at the last final emission (dirty flag)
  };
  using Windows = std::map<int64_t, Cell>;  // window id -> cell
  struct Entry {
    KeyHash key = 0;     // HashBytes(word): the word's state entry key
    bool dirty = false;  // listed in dirty_
    Windows windows;
  };
  using Word = std::pair<const std::string, Entry>;
  using KeyedWord = std::pair<KeyHash, const Word*>;  // (entry key, word)

  /// The word's entry, created empty on first sight and listed for the
  /// next delta.
  Word& DirtyWord(const std::string& word);
  /// Lists the word's entry for the next delta.
  void MarkDirty(Word* word);

  /// The words' externalised entries (all windows of one word each), added
  /// in the order ProcessingState keeps, ascending by key with ties by word,
  /// so nothing sorts them again.
  static core::ProcessingState EncodeInKeyOrder(std::vector<KeyedWord> words);

  WordCountConfig config_;
  uint64_t inputs_since_probe_ = 0;
  // word -> entry: one hash probe per tuple. Nothing depends on its
  // iteration order; captures, deltas and timers sort what they emit.
  std::unordered_map<std::string, Entry> counts_;
  // Incremental checkpoint tracking: entries changed since the last delta
  // or full checkpoint, and words whose entry vanished since then. A word
  // with an entry is never in removed_words_.
  std::vector<Word*> dirty_;
  std::set<std::string> removed_words_;
};

/// Collects final word frequencies. Upserts by (window, word) taking the
/// maximum count, which makes results exact under at-least-once re-emission
/// after recovery (counts only ever grow toward the true value).
class WordFrequencySink : public core::SinkConsumer {
 public:
  struct Results {
    // (window id, word) -> count.
    std::map<std::pair<int64_t, std::string>, int64_t> counts;
    uint64_t tuples_seen = 0;
  };

  explicit WordFrequencySink(std::shared_ptr<Results> results)
      : results_(std::move(results)) {}

  void Consume(const core::Tuple& tuple, SimTime now) override;

 private:
  std::shared_ptr<Results> results_;
};

/// The assembled query with handles to its operators and shared sink
/// results.
struct WordCountQuery {
  core::QueryGraph graph;
  OperatorId source = 0;
  OperatorId splitter = 0;
  OperatorId counter = 0;
  OperatorId sink = 0;
  std::shared_ptr<WordFrequencySink::Results> results;
};

/// Builds source → splitter → counter → sink.
WordCountQuery BuildWordCountQuery(const WordCountConfig& config);

}  // namespace seep::workloads::wordcount

#endif  // SEEP_WORKLOADS_WORDCOUNT_WORDCOUNT_H_
