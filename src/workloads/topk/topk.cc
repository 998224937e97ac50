#include "workloads/topk/topk.h"

#include <algorithm>

#include "common/hash.h"
#include "serde/decoder.h"
#include "serde/encoder.h"

namespace seep::workloads::topk {

// -------------------------------------------------------------------- source

PageViewSource::PageViewSource(const TopKConfig& config, uint32_t index,
                               uint32_t count)
    : config_(config),
      count_(count),
      rng_(HashCombine(config.seed, index)),
      language_rank_(config.num_languages, config.zipf_skew) {}

double PageViewSource::TargetRate(SimTime now) const {
  return config_.total_rate_tuples_per_sec / static_cast<double>(count_);
}

void PageViewSource::GenerateBatch(SimTime now, SimTime dt,
                                   core::Collector* emit) {
  const double want = TargetRate(now) * SimToSeconds(dt) + carry_;
  const auto n = static_cast<size_t>(want);
  carry_ = want - static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    const auto lang = static_cast<int64_t>(language_rank_.Sample(&rng_));
    core::Tuple t;
    t.event_time = now;
    t.key = Mix64(static_cast<uint64_t>(lang));
    t.ints = {lang, static_cast<int64_t>(rng_.Next() & 0xFFFF),
              static_cast<int64_t>(rng_.Next() & 0xFFFF), 0};
    // Junk payload the mapper strips: page title + user agent stand-ins.
    t.text = "page/" + std::to_string(rng_.NextBounded(100000)) +
             "?agent=browser";
    emit->Emit(std::move(t));
  }
}

// ----------------------------------------------------------------------- map

void MapProject::Process(const core::Tuple& input, core::Collector* out) {
  core::Tuple projected;
  projected.key = input.key;
  projected.event_time = input.event_time;
  projected.ints = {input.ints[0], 0, 0, 0};
  out->Emit(std::move(projected));
}

// -------------------------------------------------------------------- reduce

TopKReducer::Windows& TopKReducer::DirtyWindows(int64_t lang) {
  auto [it, inserted] = counts_.try_emplace(lang);
  // A language that comes back before the next delta is updated, not
  // deleted.
  if (inserted) removed_languages_.erase(lang);
  dirty_languages_.insert(lang);
  return it->second;
}

void TopKReducer::Process(const core::Tuple& input, core::Collector* out) {
  const int64_t window =
      input.event_time / std::max<SimTime>(1, config_.window);
  ++DirtyWindows(input.ints[0])[window].count;
}

void TopKReducer::OnTimer(SimTime now, core::Collector* out) {
  const SimTime window = std::max<SimTime>(1, config_.window);
  const int64_t current = now / window;
  for (auto& [lang, windows] : counts_) {
    for (auto it = windows.begin(); it != windows.end();) {
      auto& [win, cell] = *it;
      if (win >= current) {
        ++it;
        continue;
      }
      if (cell.count != cell.emitted) {
        core::Tuple partial;
        partial.key = Mix64(static_cast<uint64_t>(lang));
        partial.event_time = (win + 1) * window;
        partial.ints = {win, lang, cell.count, 0};
        partial.latency_sample = false;  // periodic output
        out->Emit(std::move(partial));
        cell.emitted = cell.count;
      }
      if (win < current - 2) {
        dirty_languages_.insert(lang);
        it = windows.erase(it);
      } else {
        ++it;
      }
    }
  }
  std::erase_if(counts_, [this](const auto& kv) {
    if (!kv.second.empty()) return false;
    removed_languages_.insert(kv.first);
    dirty_languages_.erase(kv.first);
    return true;
  });
}

std::string_view TopKReducer::EncodeLanguageEntry(int64_t lang,
                                                  const Windows& windows,
                                                  serde::Encoder* enc) {
  enc->Clear();
  enc->AppendVarintSigned64(lang);
  enc->AppendVarint64(windows.size());
  for (const auto& [win, cell] : windows) {
    enc->AppendVarintSigned64(win);
    enc->AppendVarintSigned64(cell.count);
  }
  return enc->view();
}

core::ProcessingState TopKReducer::GetProcessingState() const {
  core::ProcessingState state;
  state.Reserve(counts_.size());
  serde::Encoder enc;
  for (const auto& [lang, windows] : counts_) {
    state.Add(Mix64(static_cast<uint64_t>(lang)),
              EncodeLanguageEntry(lang, windows, &enc));
  }
  return state;
}

core::StateDelta TopKReducer::TakeProcessingStateDelta() {
  core::StateDelta delta;
  delta.updated.Reserve(dirty_languages_.size());
  serde::Encoder enc;
  for (int64_t lang : dirty_languages_) {
    auto it = counts_.find(lang);
    if (it != counts_.end()) {
      delta.updated.Add(Mix64(static_cast<uint64_t>(lang)),
                        EncodeLanguageEntry(lang, it->second, &enc));
    }
  }
  delta.deleted.reserve(removed_languages_.size());
  for (int64_t lang : removed_languages_) {
    delta.deleted.push_back(Mix64(static_cast<uint64_t>(lang)));
  }
  ClearStateDelta();
  return delta;
}

void TopKReducer::ClearStateDelta() {
  dirty_languages_.clear();
  removed_languages_.clear();
}

void TopKReducer::SetProcessingState(const core::ProcessingState& state) {
  counts_.clear();
  MergeProcessingState(state);
  ClearStateDelta();
}

void TopKReducer::MergeProcessingState(const core::ProcessingState& state) {
  for (const auto& [key, value] : state.entries()) {
    serde::Decoder dec(value);
    auto lang = dec.ReadVarintSigned64();
    SEEP_CHECK(lang.ok());
    auto n = dec.ReadVarint64();
    SEEP_CHECK(n.ok());
    Windows& windows = DirtyWindows(lang.value());
    for (uint64_t i = 0; i < n.value(); ++i) {
      auto win = dec.ReadVarintSigned64();
      auto count = dec.ReadVarintSigned64();
      SEEP_CHECK(win.ok() && count.ok());
      windows[win.value()].count += count.value();
    }
  }
}

// ---------------------------------------------------------------------- sink

void TopKSink::Consume(const core::Tuple& tuple, SimTime now) {
  ++results_->tuples_seen;
  auto& cell = results_->counts[tuple.ints[0]][tuple.ints[1]];
  // Partials are cumulative per (window, language, partition); since one
  // partition owns a language at a time, max-merge converges to the truth
  // under re-emission.
  cell = std::max(cell, tuple.ints[2]);
}

std::vector<std::pair<int64_t, int64_t>> TopKSink::Results::TopK(
    int64_t window, size_t k) const {
  std::vector<std::pair<int64_t, int64_t>> ranked;  // (language, count)
  auto it = counts.find(window);
  if (it == counts.end()) return ranked;
  for (const auto& [lang, count] : it->second) ranked.emplace_back(lang, count);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

// --------------------------------------------------------------------- query

TopKQuery BuildTopKQuery(const TopKConfig& config) {
  TopKQuery q;
  q.results = std::make_shared<TopKSink::Results>();

  q.source = q.graph.AddSource(
      "pageview-source",
      [config](uint32_t index, uint32_t count) {
        return std::make_unique<PageViewSource>(config, index, count);
      },
      config.source_cost_us, config.num_sources);
  q.map = q.graph.AddOperator(
      "map",
      [config]() { return std::make_unique<MapProject>(config.map_cost_us); },
      /*stateful=*/false);
  q.reduce = q.graph.AddOperator(
      "reduce",
      [config]() { return std::make_unique<TopKReducer>(config); },
      /*stateful=*/true);
  q.sink = q.graph.AddSink(
      "sink",
      [results = q.results]() { return std::make_unique<TopKSink>(results); },
      config.sink_cost_us);

  SEEP_CHECK(q.graph.Connect(q.source, q.map).ok());
  SEEP_CHECK(q.graph.Connect(q.map, q.reduce).ok());
  SEEP_CHECK(q.graph.Connect(q.reduce, q.sink).ok());
  return q;
}

}  // namespace seep::workloads::topk
