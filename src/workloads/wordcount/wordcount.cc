#include "workloads/wordcount/wordcount.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <limits>

#include "common/hash.h"
#include "serde/decoder.h"
#include "serde/encoder.h"

namespace seep::workloads::wordcount {

// -------------------------------------------------------------------- source

SentenceSource::SentenceSource(const WordCountConfig& config, uint32_t index,
                               uint32_t count)
    : config_(config),
      count_(count),
      rng_(HashCombine(config.seed, index)),
      word_rank_(config.vocabulary, config.zipf_skew) {}

double SentenceSource::TargetRate(SimTime now) const {
  const double total = config_.rate_fn
                           ? config_.rate_fn(SimToSeconds(now))
                           : config_.rate_tuples_per_sec;
  return total / static_cast<double>(count_);
}

void SentenceSource::GenerateBatch(SimTime now, SimTime dt,
                                   core::Collector* emit) {
  const double want = TargetRate(now) * SimToSeconds(dt) + carry_;
  const auto n = static_cast<size_t>(want);
  carry_ = want - static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    core::Tuple t;
    t.event_time = now;
    t.key = rng_.Next();
    t.text.reserve(config_.words_per_sentence * 8);
    for (size_t w = 0; w < config_.words_per_sentence; ++w) {
      if (w > 0) t.text += ' ';
      AppendWord(&t.text, word_rank_.Sample(&rng_));
    }
    emit->Emit(std::move(t));
  }
}

void SentenceSource::AppendWord(std::string* out, size_t index) {
  char digits[std::numeric_limits<size_t>::digits10 + 1];
  const char* const end =
      std::to_chars(std::begin(digits), std::end(digits), index).ptr;
  out->push_back('w');
  out->append(digits, static_cast<size_t>(end - digits));
}

// ------------------------------------------------------------------ splitter

void WordSplitter::Process(const core::Tuple& input, core::Collector* out) {
  size_t start = 0;
  const std::string& s = input.text;
  while (start < s.size()) {
    size_t end = s.find(' ', start);
    if (end == std::string::npos) end = s.size();
    if (end > start) {
      core::Tuple word;
      word.event_time = input.event_time;
      word.text.assign(s, start, end - start);
      word.key = HashBytes(word.text);
      out->Emit(std::move(word));
    }
    start = end + 1;
  }
}

// ------------------------------------------------------------------- counter

WordCounter::Word& WordCounter::DirtyWord(const std::string& word) {
  auto [it, inserted] = counts_.try_emplace(word);
  if (inserted) {
    it->second.key = HashBytes(word);
    // A word that comes back before the next delta is updated, not deleted.
    removed_words_.erase(word);
  }
  MarkDirty(&*it);
  return *it;
}

void WordCounter::MarkDirty(Word* word) {
  if (word->second.dirty) return;
  word->second.dirty = true;
  dirty_.push_back(word);
}

void WordCounter::Process(const core::Tuple& input, core::Collector* out) {
  const int64_t window =
      input.event_time / std::max<SimTime>(1, config_.window);
  const int64_t count = ++DirtyWord(input.text).second.windows[window].count;
  if (config_.probe_every_n > 0 &&
      ++inputs_since_probe_ >= config_.probe_every_n) {
    inputs_since_probe_ = 0;
    core::Tuple probe;
    probe.key = input.key;
    probe.event_time = input.event_time;
    probe.text = input.text;
    probe.ints = {window, count, /*final=*/0, 0};
    out->Emit(std::move(probe));
  }
}

void WordCounter::OnTimer(SimTime now, core::Collector* out) {
  const SimTime window = std::max<SimTime>(1, config_.window);
  const int64_t current = now / window;
  std::vector<Word*> words;  // finals go out in word order
  words.reserve(counts_.size());
  for (Word& word : counts_) words.push_back(&word);
  std::sort(words.begin(), words.end(),
            [](const Word* a, const Word* b) { return a->first < b->first; });
  for (Word* word : words) {
    Windows& windows = word->second.windows;
    for (auto it = windows.begin(); it != windows.end();) {
      auto& [win, cell] = *it;
      if (win >= current) {
        ++it;
        continue;  // window still open
      }
      // Emit a final only when the window changed since the last emission
      // (replayed stragglers re-dirty a window and trigger a corrected
      // final on the next timer).
      if (cell.count != cell.emitted) {
        core::Tuple result;
        result.key = word->second.key;
        result.event_time = (win + 1) * window;
        result.text = word->first;
        result.ints = {win, cell.count, /*final=*/1, 0};
        result.latency_sample = false;  // periodic output, not per-tuple path
        out->Emit(std::move(result));
        cell.emitted = cell.count;
      }
      // Retain recently closed windows so late tuples re-accumulate.
      if (win < current - config_.retained_windows) {
        MarkDirty(word);
        it = windows.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Words with no window left are deleted, so they leave the dirty list
  // before their entries go.
  std::erase_if(dirty_,
                [](const Word* word) { return word->second.windows.empty(); });
  std::erase_if(counts_, [this](const Word& word) {
    if (!word.second.windows.empty()) return false;
    removed_words_.insert(word.first);
    return true;
  });
}

core::ProcessingState WordCounter::EncodeInKeyOrder(
    std::vector<KeyedWord> words) {
  std::sort(words.begin(), words.end(),
            [](const KeyedWord& a, const KeyedWord& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second->first < b.second->first;
            });
  core::ProcessingState state;
  state.Reserve(words.size());
  serde::Encoder enc;
  for (const auto& [key, word] : words) {
    enc.Clear();
    enc.AppendString(word->first);
    enc.AppendVarint64(word->second.windows.size());
    for (const auto& [win, cell] : word->second.windows) {
      enc.AppendVarintSigned64(win);
      enc.AppendVarintSigned64(cell.count);
    }
    state.Add(key, enc.view());
  }
  return state;
}

core::ProcessingState WordCounter::GetProcessingState() const {
  std::vector<KeyedWord> words;
  words.reserve(counts_.size());
  for (const Word& word : counts_) words.emplace_back(word.second.key, &word);
  return EncodeInKeyOrder(std::move(words));
}

core::StateDelta WordCounter::TakeProcessingStateDelta() {
  std::vector<KeyedWord> words;
  words.reserve(dirty_.size());
  for (const Word* word : dirty_) words.emplace_back(word->second.key, word);
  core::StateDelta delta;
  delta.updated = EncodeInKeyOrder(std::move(words));
  delta.deleted.reserve(removed_words_.size());
  for (const std::string& word : removed_words_) {
    delta.deleted.push_back(HashBytes(word));
  }
  ClearStateDelta();
  return delta;
}

void WordCounter::ClearStateDelta() {
  for (Word* word : dirty_) word->second.dirty = false;
  dirty_.clear();
  removed_words_.clear();
}

void WordCounter::SetProcessingState(const core::ProcessingState& state) {
  ClearStateDelta();  // before the entries dirty_ points to go
  counts_.clear();
  MergeProcessingState(state);
  // Restored state equals the checkpoint it came from: nothing is dirty
  // relative to that base.
  ClearStateDelta();
}

void WordCounter::MergeProcessingState(const core::ProcessingState& state) {
  for (const auto& [key, value] : state.entries()) {
    serde::Decoder dec(value);
    auto word = dec.ReadString();
    SEEP_CHECK(word.ok());
    auto n = dec.ReadVarint64();
    SEEP_CHECK(n.ok());
    Word& entry = DirtyWord(word.value());
    for (uint64_t i = 0; i < n.value(); ++i) {
      auto win = dec.ReadVarintSigned64();
      auto count = dec.ReadVarintSigned64();
      SEEP_CHECK(win.ok() && count.ok());
      // Restored/merged state counts as un-emitted so the next timer emits
      // (or re-emits) the final; the sink's max-merge keeps this idempotent.
      entry.second.windows[win.value()].count += count.value();
    }
  }
}

size_t WordCounter::StateCells() const {
  size_t n = 0;
  for (const auto& [word, entry] : counts_) n += entry.windows.size();
  return n;
}

// ---------------------------------------------------------------------- sink

void WordFrequencySink::Consume(const core::Tuple& tuple, SimTime now) {
  ++results_->tuples_seen;
  auto& cell = results_->counts[{tuple.ints[0], tuple.text}];
  cell = std::max(cell, tuple.ints[1]);
}

// --------------------------------------------------------------------- query

WordCountQuery BuildWordCountQuery(const WordCountConfig& config) {
  WordCountQuery q;
  q.results = std::make_shared<WordFrequencySink::Results>();

  q.source = q.graph.AddSource(
      "sentence-source",
      [config](uint32_t index, uint32_t count) {
        return std::make_unique<SentenceSource>(config, index, count);
      },
      config.source_cost_us);
  q.splitter = q.graph.AddOperator(
      "word-splitter",
      [config]() { return std::make_unique<WordSplitter>(
          config.splitter_cost_us); },
      /*stateful=*/false);
  q.counter = q.graph.AddOperator(
      "word-counter",
      [config]() { return std::make_unique<WordCounter>(config); },
      /*stateful=*/true);
  q.sink = q.graph.AddSink(
      "sink",
      [results = q.results]() {
        return std::make_unique<WordFrequencySink>(results);
      },
      config.sink_cost_us);

  SEEP_CHECK(q.graph.Connect(q.source, q.splitter).ok());
  SEEP_CHECK(q.graph.Connect(q.splitter, q.counter).ok());
  SEEP_CHECK(q.graph.Connect(q.counter, q.sink).ok());
  return q;
}

}  // namespace seep::workloads::wordcount
