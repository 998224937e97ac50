// Micro-benchmarks for the state-management hot paths: checkpoint capture,
// delta application, distribution-aware partitioning, buffer trimming and
// checkpoint serialisation, each measured against the naive (pre-rework)
// reference implementation — unsorted linear-scan filters, map-rebuild delta
// application, vector-erase trims and a byte-at-a-time encoder without
// reservation — plus the operators' own get-processing-state at the state
// sizes the LRB benchmark reaches, the replay buffer's own operations, the
// word counter's per-tuple Process, the word-count source's per-sentence
// generation and Zipf draw, and the sim kernel's schedule-plus-fire of one
// event.
// Results go to stdout and BENCH_state_hot_paths.json.
//
// Usage: bench_state_hot_paths [output.json]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/operator.h"
#include "core/state.h"
#include "core/state_ops.h"
#include "serde/crc32c.h"
#include "serde/decoder.h"
#include "serde/encoder.h"
#include "sim/simulation.h"
#include "workloads/lrb/lrb.h"
#include "workloads/wordcount/wordcount.h"

namespace seep::bench {
namespace {

using core::KeyRange;
using core::ProcessingState;
using core::StateCheckpoint;
using core::Tuple;

// Best-of-`reps` wall time of `fn`, in microseconds. Min (not mean) filters
// out allocator warm-up and scheduler noise, which dwarf the microsecond-
// scale fast paths at small sizes.
template <typename Fn>
double TimeUs(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(stop - start).count();
    best = std::min(best, us);
  }
  return best;
}

// Like TimeUs, but `setup` runs untimed before each rep and its result is
// passed to `fn` — for primitives that consume their input (delta apply,
// trim), so per-rep reconstruction does not dilute the measurement.
template <typename Setup, typename Fn>
double TimeConsumingUs(int reps, Setup&& setup, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    auto input = setup();
    const auto start = std::chrono::steady_clock::now();
    fn(input);
    const auto stop = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(stop - start).count();
    best = std::min(best, us);
  }
  return best;
}

// ----------------------------------------------------------- naive references
// The pre-rework implementations, kept verbatim in spirit: these are what the
// speedup column is measured against.

/// Byte-at-a-time encoder: fixed-width appends push one byte per call and
/// nothing ever reserves, so large checkpoints pay log(n) realloc-and-copy
/// cycles. Wire format is identical to serde::Encoder.
class NaiveEncoder {
 public:
  void AppendU8(uint8_t v) { buf_.push_back(v); }
  void AppendFixed32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(uint8_t(v >> (8 * i)));
  }
  void AppendFixed64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(uint8_t(v >> (8 * i)));
  }
  void AppendVarint64(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(uint8_t(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(uint8_t(v));
  }
  void AppendVarintSigned64(int64_t v) {
    AppendVarint64((static_cast<uint64_t>(v) << 1) ^
                   static_cast<uint64_t>(v >> 63));
  }
  void AppendString(std::string_view s) {
    AppendVarint64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  const std::vector<uint8_t>& buffer() const { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

/// StateCheckpoint::Encode re-expressed over the naive encoder (checkpoints
/// in this bench carry no buffer state, so the buffer section is empty).
void NaiveEncodeCheckpoint(const StateCheckpoint& c, NaiveEncoder& enc) {
  SEEP_CHECK(c.buffer.buffers().empty());
  enc.AppendFixed32(c.op);
  enc.AppendFixed32(c.instance);
  enc.AppendFixed64(c.origin);
  enc.AppendFixed64(c.key_range.lo);
  enc.AppendFixed64(c.key_range.hi);
  enc.AppendVarintSigned64(c.out_clock);
  enc.AppendVarint64(c.seq);
  enc.AppendVarintSigned64(c.taken_at);
  enc.AppendVarint64(c.positions.positions().size());
  for (const auto& [origin, ts] : c.positions.positions()) {
    enc.AppendFixed64(origin);
    enc.AppendVarintSigned64(ts);
  }
  enc.AppendVarint64(c.processing.size());
  for (const auto& [key, value] : c.processing.entries()) {
    enc.AppendFixed64(key);
    enc.AppendString(value);
  }
  enc.AppendVarint64(0);  // empty buffer state
  enc.AppendU8(c.is_delta ? 1 : 0);
  enc.AppendVarint64(c.base_seq);
  enc.AppendVarint64(c.deleted_keys.size());
  for (KeyHash k : c.deleted_keys) enc.AppendFixed64(k);
  enc.AppendVarint64(c.buffer_front.size());
  for (const auto& [op_id, front] : c.buffer_front) {
    enc.AppendFixed32(op_id);
    enc.AppendVarintSigned64(front);
  }
}

/// Map-rebuild delta application: load every base entry into a std::map,
/// overlay the delta, erase deletions, rebuild the entry vector.
void NaiveApplyDelta(StateCheckpoint* base, const StateCheckpoint& delta) {
  std::map<KeyHash, std::string> merged;
  for (const auto& [key, value] : base->processing.entries()) {
    merged[key] = value;
  }
  for (const auto& [key, value] : delta.processing.entries()) {
    merged[key] = value;
  }
  for (KeyHash key : delta.deleted_keys) merged.erase(key);
  ProcessingState rebuilt;
  for (auto& [key, value] : merged) rebuilt.Add(key, std::move(value));
  base->processing = std::move(rebuilt);
  base->positions = delta.positions;
  base->out_clock = delta.out_clock;
  base->seq = delta.seq;
  base->taken_at = delta.taken_at;
}

/// Copy-keys-and-sort quantile split followed by a full linear scan per
/// partition (each entry is range-tested once per partition).
std::vector<StateCheckpoint> NaivePartition(const StateCheckpoint& checkpoint,
                                            uint32_t pi) {
  std::vector<KeyHash> keys;
  keys.reserve(checkpoint.processing.size());
  for (const auto& [key, value] : checkpoint.processing.entries()) {
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  std::vector<KeyRange> ranges;
  KeyHash lo = checkpoint.key_range.lo;
  for (uint32_t i = 1; i < pi; ++i) {
    KeyHash cut = keys[keys.size() * i / pi];
    if (cut < lo) cut = lo;
    if (cut >= checkpoint.key_range.hi) cut = checkpoint.key_range.hi - 1;
    ranges.push_back(KeyRange{lo, cut});
    lo = cut + 1;
  }
  ranges.push_back(KeyRange{lo, checkpoint.key_range.hi});

  std::vector<StateCheckpoint> parts;
  for (const KeyRange& range : ranges) {
    StateCheckpoint part;
    part.op = checkpoint.op;
    part.key_range = range;
    part.seq = checkpoint.seq;
    part.positions = checkpoint.positions;
    for (const auto& [key, value] : checkpoint.processing.entries()) {
      if (range.Contains(key)) part.processing.Add(key, value);
    }
    parts.push_back(std::move(part));
  }
  return parts;
}

// --------------------------------------------------------------- input makers

std::string ValueFor(Rng& rng) {
  return std::string(8 + rng.NextBounded(17),
                     static_cast<char>('a' + rng.NextBounded(26)));
}

/// A checkpoint with `n` distinct random-keyed entries and no buffer state.
StateCheckpoint MakeCheckpoint(size_t n, uint64_t seed) {
  Rng rng(seed);
  StateCheckpoint c;
  c.op = 3;
  c.instance = 1;
  c.origin = 9;
  c.seq = 4;
  c.out_clock = static_cast<int64_t>(n);
  c.positions.Set(9, static_cast<int64_t>(n));
  c.processing.Reserve(n);
  for (size_t i = 0; i < n; ++i) c.processing.Add(rng.Next(), ValueFor(rng));
  c.processing.entries();  // settle the one-time sort outside the timings
  return c;
}

Tuple MakeTuple(int64_t ts) {
  Tuple t;
  t.timestamp = ts;
  t.key = static_cast<KeyHash>(ts) * 2654435761u;
  t.event_time = ts;
  return t;
}

// ------------------------------------------------------------------- results

struct Row {
  const char* primitive;
  size_t size;
  double naive_us;
  double fast_us;
};

void Report(std::vector<Row>* rows, const char* primitive, size_t size,
            double naive_us, double fast_us) {
  std::printf("%-15s %9zu %14.1f %14.1f %9.1fx\n", primitive, size, naive_us,
              fast_us, naive_us / fast_us);
  std::fflush(stdout);
  rows->push_back(Row{primitive, size, naive_us, fast_us});
}

// ---------------------------------------------------------------- benchmarks

void BenchCapture(std::vector<Row>* rows, size_t n, int reps) {
  // Capture = canonicalise the operator's externalised state for shipping.
  // Naive: rebuild a std::map per capture. Fast: the entries are already
  // sorted (lazily, once), so a capture is a straight vector copy.
  const StateCheckpoint source = MakeCheckpoint(n, 0xCAFE + n);
  const double naive = TimeUs(reps, [&] {
    std::map<KeyHash, std::string> canonical;
    for (const auto& [key, value] : source.processing.entries()) {
      canonical[key] = value;
    }
    ProcessingState snap;
    for (const auto& [key, value] : canonical) snap.Add(key, value);
    SEEP_CHECK(snap.size() == source.processing.size());
  });
  const double fast = TimeUs(reps, [&] {
    ProcessingState snap = source.processing;
    SEEP_CHECK(snap.entries().size() == source.processing.size());
  });
  Report(rows, "capture", n, naive, fast);
}

void BenchDeltaApply(std::vector<Row>* rows, size_t n, int reps) {
  // 1% of keys updated, 0.1% deleted — the incremental-checkpoint shape of
  // a hot-set workload. Both sides pay the same fresh base copy per rep.
  const StateCheckpoint base = MakeCheckpoint(n, 0xD0 + n);
  const auto& entries = base.processing.entries();
  Rng rng(7);
  StateCheckpoint delta;
  delta.op = base.op;
  delta.instance = base.instance;
  delta.is_delta = true;
  delta.base_seq = base.seq;
  delta.seq = base.seq + 1;
  delta.positions = base.positions;
  for (size_t i = 0; i < n / 100; ++i) {
    delta.processing.Add(entries[rng.NextBounded(n)].first, ValueFor(rng));
  }
  for (size_t i = 0; i < n / 1000; ++i) {
    delta.deleted_keys.push_back(entries[rng.NextBounded(n)].first);
  }
  // The apply consumes the base, so each rep starts from an untimed copy —
  // only the application itself is measured.
  const auto fresh_base = [&] { return base; };
  const double naive = TimeConsumingUs(
      reps, fresh_base, [&](StateCheckpoint& work) {
    NaiveApplyDelta(&work, delta);
    SEEP_CHECK(work.seq == delta.seq);
  });
  const double fast = TimeConsumingUs(
      reps, fresh_base, [&](StateCheckpoint& work) {
    SEEP_CHECK(core::ApplyDelta(&work, delta).ok());
  });
  Report(rows, "delta_apply", n, naive, fast);
}

void BenchPartition(std::vector<Row>* rows, size_t n, int reps) {
  const StateCheckpoint source = MakeCheckpoint(n, 0xBEEF + n);
  constexpr uint32_t kPi = 8;
  const double naive = TimeUs(reps, [&] {
    const auto parts = NaivePartition(source, kPi);
    SEEP_CHECK(parts.size() == kPi);
  });
  const double fast = TimeUs(reps, [&] {
    const auto ranges = core::BalancedSplitRanges(source, kPi);
    const auto parts = core::PartitionCheckpointByRanges(source, ranges);
    SEEP_CHECK(parts.ok() && parts->size() == kPi);
  });
  Report(rows, "partition", n, naive, fast);
}

void BenchTrim(std::vector<Row>* rows, size_t n, int reps) {
  // 64 successive trim acknowledgements over an n-tuple replay buffer.
  // Naive: find_if + erase shifts every surviving tuple per trim. Fast:
  // binary search + front offset with amortised compaction.
  constexpr int kSteps = 64;
  const double naive = TimeConsumingUs(
      reps,
      [&] {
        std::vector<Tuple> buffer;
        buffer.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          buffer.push_back(MakeTuple(static_cast<int64_t>(i) + 1));
        }
        return buffer;
      },
      [&](std::vector<Tuple>& buffer) {
        for (int s = 1; s <= kSteps; ++s) {
          const int64_t up_to = static_cast<int64_t>(n) * s / kSteps;
          auto keep = std::find_if(
              buffer.begin(), buffer.end(),
              [&](const Tuple& t) { return t.timestamp > up_to; });
          buffer.erase(buffer.begin(), keep);
        }
        SEEP_CHECK(buffer.empty());
      });
  const double fast = TimeConsumingUs(
      reps,
      [&] {
        core::BufferState buffer;
        for (size_t i = 0; i < n; ++i) {
          buffer.Append(1, MakeTuple(static_cast<int64_t>(i) + 1));
        }
        return buffer;
      },
      [&](core::BufferState& buffer) {
        for (int s = 1; s <= kSteps; ++s) {
          buffer.Trim(1, static_cast<int64_t>(n) * s / kSteps);
        }
        SEEP_CHECK(buffer.TotalTuples() == 0);
      });
  Report(rows, "trim", n, naive, fast);
}

void BenchSerialize(std::vector<Row>* rows, size_t n, int reps) {
  const StateCheckpoint source = MakeCheckpoint(n, 0x5E + n);
  {
    // Untimed: both encoders produce the same bytes, and the fast path
    // decodes back to the same state.
    NaiveEncoder naive_enc;
    NaiveEncodeCheckpoint(source, naive_enc);
    serde::Encoder enc;
    source.Encode(&enc);
    SEEP_CHECK(naive_enc.buffer() == enc.buffer());
    serde::Decoder dec(enc.buffer());
    const auto back = StateCheckpoint::Decode(&dec);
    SEEP_CHECK(back.ok() && back->processing.size() == n);
    serde::Encoder again;
    back->Encode(&again);
    SEEP_CHECK(again.buffer() == enc.buffer());
  }
  // Timed: the encode itself. Framing and decode are byte-identical work on
  // both sides and would only dilute the comparison.
  const double naive = TimeUs(reps, [&] {
    NaiveEncoder enc;
    NaiveEncodeCheckpoint(source, enc);
    SEEP_CHECK(enc.buffer().size() > n);
  });
  const double fast = TimeUs(reps, [&] {
    serde::Encoder enc;
    source.Encode(&enc);
    SEEP_CHECK(enc.size() > n);
  });
  Report(rows, "serialize", n, naive, fast);
}

void BenchPartitionSerialize(std::vector<Row>* rows, size_t n, int reps) {
  // The scale-out hot path end to end: split the checkpoint into 8 partition
  // checkpoints, then serialise each for shipping to the new instances.
  const StateCheckpoint source = MakeCheckpoint(n, 0xFACE + n);
  constexpr uint32_t kPi = 8;
  const double naive = TimeUs(reps, [&] {
    size_t shipped = 0;
    for (const StateCheckpoint& part : NaivePartition(source, kPi)) {
      NaiveEncoder enc;
      NaiveEncodeCheckpoint(part, enc);
      shipped += enc.buffer().size();
    }
    SEEP_CHECK(shipped > n);
  });
  const double fast = TimeUs(reps, [&] {
    const auto ranges = core::BalancedSplitRanges(source, kPi);
    const auto parts = core::PartitionCheckpointByRanges(source, ranges);
    SEEP_CHECK(parts.ok());
    size_t shipped = 0;
    for (const StateCheckpoint& part : *parts) {
      serde::Encoder enc;
      part.Encode(&enc);
      shipped += enc.size();
    }
    SEEP_CHECK(shipped > n);
  });
  Report(rows, "part_serialize", n, naive, fast);
}

// --------------------------------------------------------------- buffer state
// β's own operations on one downstream's replay buffer of 20 000 word tuples
// (Zipf(1 000, 0.9) words, as the word-count splitter emits them): appending
// them, a full copy (what a full capture, a restore and Algorithm 2's first
// partition pay), the encode into a checkpoint, the decode at its holder,
// and a trim acknowledgement that drops the oldest 10 %. The encoding's
// crc32c shows that two builds compared here encode the same bytes.

struct BufferRow {
  const char* op;
  size_t tuples;
  double us;
  uint32_t crc;  // of the encoded buffer
};

void BenchBufferState(std::vector<BufferRow>* rows, int reps) {
  namespace wc = workloads::wordcount;
  constexpr size_t kTuples = 20'000;
  constexpr OperatorId kDown = 1;
  Rng rng(0x5EED);
  const ZipfDistribution rank(1000, 0.9);
  std::vector<Tuple> words(kTuples);
  for (size_t i = 0; i < kTuples; ++i) {
    Tuple& t = words[i];
    t.timestamp = static_cast<int64_t>(i) + 1;
    t.text = wc::SentenceSource::WordAt(rank.Sample(&rng));
    t.key = HashBytes(t.text);
    t.origin = 9;
    t.event_time = static_cast<SimTime>(i) * 500;
  }
  core::BufferState full;
  for (const Tuple& t : words) full.Append(kDown, t);
  serde::Encoder encoded;
  full.Encode(&encoded);
  const uint32_t crc =
      serde::Crc32c(encoded.buffer().data(), encoded.buffer().size());

  const auto report = [&](const char* op, double us) {
    rows->push_back(BufferRow{op, kTuples, us, crc});
    std::printf("%-15s %9zu %14.1f %12u\n", op, kTuples, us, crc);
    std::fflush(stdout);
  };
  report("append", TimeConsumingUs(
                       reps, [] { return core::BufferState(); },
                       [&](core::BufferState& buffer) {
                         for (const Tuple& t : words) buffer.Append(kDown, t);
                       }));
  report("full_copy", TimeUs(reps, [&] {
           const core::BufferState copy = full;
           SEEP_CHECK(copy.TotalTuples() == kTuples);
         }));
  report("encode", TimeUs(reps, [&] {
           serde::Encoder enc;
           full.Encode(&enc);
           SEEP_CHECK(enc.size() == encoded.size());
         }));
  report("decode", TimeUs(reps, [&] {
           serde::Decoder dec(encoded.buffer());
           const auto back = core::BufferState::Decode(&dec);
           SEEP_CHECK(back.ok() && back->TotalTuples() == kTuples);
         }));
  report("trim_10pct", TimeConsumingUs(
                           reps, [&] { return full; },
                           [&](core::BufferState& buffer) {
                             SEEP_CHECK(buffer.Trim(kDown, kTuples / 10) ==
                                        kTuples / 10);
                           }));
}

// ---------------------------------------------------------- operator capture
// get-processing-state itself (paper §3.1): every full checkpoint calls it,
// every c = 5 s for every stateful instance, so at LRB scale it is the
// simulator's single largest cost.

struct CaptureRow {
  const char* op;
  double touched_pct;  // share of entries changed before each capture
  size_t entries;
  double capture_us;
  double sorted_us;  // capture plus the first read of its entries
};

class DiscardCollector : public core::Collector {
 public:
  void EmitTo(int port, Tuple tuple) override {}
};

// `touch` runs untimed before each capture and changes `touched_pct` % of
// the operator's entries.
template <typename Touch>
void ReportCapture(std::vector<CaptureRow>* rows, const char* op,
                   double touched_pct, const core::Operator& impl, int reps,
                   Touch&& touch) {
  const auto touched = [&] {
    touch();
    return 0;
  };
  size_t entries = 0;
  const double us = TimeConsumingUs(reps, touched, [&](int) {
    const ProcessingState state = impl.GetProcessingState();
    entries = state.size();
  });
  // ProcessingState sorts on first read, so a capture that adds entries out
  // of key order leaves a sort to whoever encodes the checkpoint.
  const double sorted_us = TimeConsumingUs(reps, touched, [&](int) {
    const ProcessingState state = impl.GetProcessingState();
    entries = state.entries().size();
  });
  std::printf("%-15s %9.1f %9zu %14.1f %14.1f\n", op, touched_pct, entries,
              us, sorted_us);
  std::fflush(stdout);
  rows->push_back(CaptureRow{op, touched_pct, entries, us, sorted_us});
}

void BenchOperatorCapture(std::vector<CaptureRow>* rows, int reps) {
  namespace lrb = workloads::lrb;
  namespace wc = workloads::wordcount;
  DiscardCollector discard;
  // The unpartitioned L = 64 toll calculator: 64 x 100 segments, each with
  // three reports in each of six live minutes and, in every tenth segment,
  // one stopped vehicle.
  constexpr int64_t kXways = 64;
  constexpr int64_t kSegments = 100;
  lrb::TollCalculator toll(1.0);
  for (int64_t minute = 0; minute < 6; ++minute) {
    for (int64_t xway = 0; xway < kXways; ++xway) {
      for (int64_t seg = 0; seg < kSegments; ++seg) {
        for (int64_t v = 0; v < 3; ++v) {
          const bool stopped = seg % 10 == 0 && v == 0;
          Tuple t;
          t.event_time = minute * 60 * kMicrosPerSecond + v;
          t.ints = {lrb::kPositionReport, xway * 1000 + seg * 3 + v,
                    lrb::PackLocation(xway, seg),
                    lrb::PackSpeed(stopped ? 0 : 30 + v, true, stopped)};
          t.key = Mix64(static_cast<uint64_t>(t.ints[2]));
          toll.Process(t, &discard);
        }
      }
    }
  }
  // Between captures a share of the segments processes one report: none,
  // lrb_scaleout's measured 4.3 %, or all of them. The toll calculator
  // re-encodes only those and copies the cached entries of the rest.
  constexpr size_t kTotal = kXways * kSegments;
  for (const double pct : {0.0, 4.3, 100.0}) {
    const auto touched = static_cast<size_t>(pct / 100 * kTotal + 0.5);
    ReportCapture(rows, "TollCalculator", pct, toll, reps, [&, touched] {
      for (size_t j = 0; j < touched; ++j) {
        const auto s = static_cast<int64_t>(j * kTotal / touched);
        Tuple t;
        t.event_time = 5 * 60 * kMicrosPerSecond + 10;
        t.ints = {lrb::kPositionReport, 1'000'000,
                  lrb::PackLocation(s / kSegments, s % kSegments),
                  lrb::PackSpeed(30, false, false)};
        t.key = Mix64(static_cast<uint64_t>(t.ints[2]));
        toll.Process(t, &discard);
      }
    });
  }

  // A word counter of the same entry count: 6 400 words, three windows each.
  wc::WordCountConfig config;
  config.probe_every_n = 0;
  wc::WordCounter counter(config);
  for (int64_t window = 0; window < 3; ++window) {
    for (size_t word = 0; word < size_t{kXways * kSegments}; ++word) {
      Tuple t;
      t.text = wc::SentenceSource::WordAt(word);
      t.key = HashBytes(t.text);
      t.event_time = window * config.window;
      counter.Process(t, &discard);
    }
  }
  ReportCapture(rows, "WordCounter", 0.0, counter, reps, [] {});
}

// ---------------------------------------------------------- operator process
// The per-tuple path of a stateful operator: the word counter's own state
// bookkeeping on the stream the word-count benchmarks feed it.

struct ProcessRow {
  const char* op;
  size_t tuples;
  double ns_per_tuple;
};

void BenchOperatorProcess(std::vector<ProcessRow>* rows, int reps) {
  namespace wc = workloads::wordcount;
  // Zipf(1 000, 0.9) words at 2 000 words/s of event time (100 sentences/s
  // of 20 words, as in the word-count benchmarks): 100 s, windows 0-3.
  constexpr size_t kWords = 200'000;
  constexpr SimTime kEveryUs = 500;
  wc::WordCountConfig config;
  config.probe_every_n = 0;  // the state update alone
  Rng rng(0x5EED);
  const ZipfDistribution rank(config.vocabulary, config.zipf_skew);
  std::vector<Tuple> stream(kWords);
  for (size_t i = 0; i < kWords; ++i) {
    stream[i].text = wc::SentenceSource::WordAt(rank.Sample(&rng));
    stream[i].key = HashBytes(stream[i].text);
    stream[i].event_time = static_cast<SimTime>(i) * kEveryUs;
  }
  DiscardCollector discard;
  const double us = TimeConsumingUs(
      reps, [&] { return std::make_unique<wc::WordCounter>(config); },
      [&](std::unique_ptr<wc::WordCounter>& counter) {
        for (const Tuple& t : stream) counter->Process(t, &discard);
      });
  const double ns = us * 1000.0 / static_cast<double>(kWords);
  std::printf("%-15s %9zu %14.1f\n", "WordCounter", kWords, ns);
  std::fflush(stdout);
  rows->push_back(ProcessRow{"WordCounter", kWords, ns});
}

// ----------------------------------------------------------- source generate
// The word-count source's per-sentence work (20 Zipf(1 000, 0.9) words drawn,
// formatted and emitted), and the Zipf draw alone at the word-count and
// top-k parameters. The draws' checksum shows that two builds compared here
// drew the same sequence.

struct GenerateRow {
  std::string what;
  size_t items;
  double ns_per_item;
  uint64_t checksum;  // sum of the draws; 0 for the source
};

void BenchSourceGenerate(std::vector<GenerateRow>* rows, int reps) {
  namespace wc = workloads::wordcount;
  constexpr size_t kSentences = 20'000;
  wc::WordCountConfig config;
  config.rate_tuples_per_sec = kSentences;  // one 1 s batch
  wc::SentenceSource source(config, 0, 1);
  DiscardCollector discard;
  const double source_us = TimeUs(
      reps, [&] { source.GenerateBatch(0, SecondsToSim(1), &discard); });
  rows->push_back(GenerateRow{
      "SentenceSource", kSentences,
      source_us * 1000.0 / static_cast<double>(kSentences), 0});

  constexpr size_t kDraws = 1'000'000;
  for (const auto& [n, skew] :
       {std::pair<uint64_t, double>{1000, 0.9}, {300, 1.0}}) {
    const ZipfDistribution zipf(n, skew);
    Rng rng(0x5EED);
    uint64_t checksum = 0;
    const double us = TimeUs(reps, [&] {
      for (size_t i = 0; i < kDraws; ++i) checksum += zipf.Sample(&rng);
    });
    char what[48];
    std::snprintf(what, sizeof(what), "Zipf(%llu, %.1f)",
                  static_cast<unsigned long long>(n), skew);
    rows->push_back(GenerateRow{
        what, kDraws, us * 1000.0 / static_cast<double>(kDraws), checksum});
  }
  for (const GenerateRow& r : *rows) {
    std::printf("%-15s %9zu %14.1f %20llu\n", r.what.c_str(), r.items,
                r.ns_per_item, static_cast<unsigned long long>(r.checksum));
  }
  std::fflush(stdout);
}

// ---------------------------------------------------------------- sim kernel
// One simulated event: its closure scheduled, then popped and run. 1 024
// chains each schedule their next event from the body of the current one,
// so about a thousand events are pending, as in a busy simulation. The
// closure sizes bracket the kernel's inline task storage; the checksum
// folds in every event's firing time in firing order, so it matches
// between two kernels only if they fire the same events in the same order.

struct KernelRow {
  size_t closure_bytes;
  size_t events;
  double ns_per_event;
  uint64_t checksum;
};

struct KernelState {
  sim::Simulation sim;
  uint64_t scheduled = 0;
  uint64_t fired = 0;
  uint64_t checksum = 0;
  uint64_t limit = 0;
};

template <size_t kWords>
struct ChainEvent {
  KernelState* state;
  uint64_t words[kWords - 1];  // words[0] names the chain

  void operator()() const {
    KernelState& s = *state;
    ++s.fired;
    s.checksum = s.checksum * 1'099'511'628'211ull ^
                 (static_cast<uint64_t>(s.sim.Now()) + words[0]);
    if (s.scheduled < s.limit) {
      ++s.scheduled;
      s.sim.Schedule(1 + static_cast<SimTime>(Mix64(s.scheduled) & 63),
                     *this);
    }
  }
};

template <size_t kWords>
void BenchKernelEvents(std::vector<KernelRow>* rows, int reps) {
  constexpr size_t kEvents = 1'000'000;
  constexpr uint64_t kChains = 1024;
  static_assert(sizeof(ChainEvent<kWords>) == 8 * kWords);
  uint64_t checksum = 0;
  const double us = TimeConsumingUs(
      reps, [] { return std::make_unique<KernelState>(); },
      [&](std::unique_ptr<KernelState>& s) {
        s->limit = kEvents;
        for (uint64_t chain = 0; chain < kChains; ++chain) {
          ChainEvent<kWords> event{s.get(), {chain}};
          ++s->scheduled;
          s->sim.Schedule(static_cast<SimTime>(chain & 63), event);
        }
        s->sim.RunAll();
        SEEP_CHECK(s->fired == kEvents);
        checksum = s->checksum;
      });
  rows->push_back(KernelRow{8 * kWords, kEvents,
                            us * 1000.0 / static_cast<double>(kEvents),
                            checksum});
  const KernelRow& r = rows->back();
  std::printf("%-15zu %9zu %14.1f %20llu\n", r.closure_bytes, r.events,
              r.ns_per_event, static_cast<unsigned long long>(r.checksum));
  std::fflush(stdout);
}

void WriteJson(FILE* f, const std::vector<Row>& rows,
               const std::vector<BufferRow>& buffers,
               const std::vector<CaptureRow>& captures,
               const std::vector<ProcessRow>& processes,
               const std::vector<GenerateRow>& generates,
               const std::vector<KernelRow>& kernel) {
  std::fprintf(f, "{\n  \"bench\": \"state_hot_paths\",\n  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"primitive\": \"%s\", \"size\": %zu, "
                 "\"naive_us\": %.1f, \"fast_us\": %.1f, "
                 "\"speedup\": %.2f}%s\n",
                 r.primitive, r.size, r.naive_us, r.fast_us,
                 r.naive_us / r.fast_us, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"buffer_state\": [\n");
  for (size_t i = 0; i < buffers.size(); ++i) {
    const BufferRow& b = buffers[i];
    std::fprintf(f,
                 "    {\"op\": \"%s\", \"tuples\": %zu, \"us\": %.1f, "
                 "\"crc32c\": %u}%s\n",
                 b.op, b.tuples, b.us, b.crc,
                 i + 1 < buffers.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"operator_capture\": [\n");
  for (size_t i = 0; i < captures.size(); ++i) {
    const CaptureRow& c = captures[i];
    std::fprintf(f,
                 "    {\"operator\": \"%s\", \"touched_pct\": %.1f, "
                 "\"entries\": %zu, \"capture_us\": %.1f, "
                 "\"sorted_us\": %.1f}%s\n",
                 c.op, c.touched_pct, c.entries, c.capture_us, c.sorted_us,
                 i + 1 < captures.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"operator_process\": [\n");
  for (size_t i = 0; i < processes.size(); ++i) {
    const ProcessRow& p = processes[i];
    std::fprintf(f,
                 "    {\"operator\": \"%s\", \"tuples\": %zu, "
                 "\"ns_per_tuple\": %.1f}%s\n",
                 p.op, p.tuples, p.ns_per_tuple,
                 i + 1 < processes.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"source_generate\": [\n");
  for (size_t i = 0; i < generates.size(); ++i) {
    const GenerateRow& g = generates[i];
    std::fprintf(f,
                 "    {\"what\": \"%s\", \"items\": %zu, "
                 "\"ns_per_item\": %.1f, \"checksum\": %llu}%s\n",
                 g.what.c_str(), g.items, g.ns_per_item,
                 static_cast<unsigned long long>(g.checksum),
                 i + 1 < generates.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"sim_kernel\": [\n");
  for (size_t i = 0; i < kernel.size(); ++i) {
    const KernelRow& k = kernel[i];
    std::fprintf(f,
                 "    {\"closure_bytes\": %zu, \"events\": %zu, "
                 "\"ns_per_event\": %.1f, \"checksum\": %llu}%s\n",
                 k.closure_bytes, k.events, k.ns_per_event,
                 static_cast<unsigned long long>(k.checksum),
                 i + 1 < kernel.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

int Main(int argc, char** argv) {
  const char* out = argc > 1 ? argv[1] : "BENCH_state_hot_paths.json";
  // Open the output before the (minutes-long) measurements so a bad path
  // fails immediately instead of after the run.
  FILE* f = std::fopen(out, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out);
    return 1;
  }
  std::printf("==== State hot paths: naive (pre-rework) vs current ====\n");
  std::printf("%-15s %9s %14s %14s %9s\n", "primitive", "entries", "naive(us)",
              "fast(us)", "speedup");
  std::vector<Row> rows;
  for (size_t n : std::vector<size_t>{1'000, 10'000, 100'000, 1'000'000}) {
    const int reps = n <= 10'000 ? 20 : (n <= 100'000 ? 8 : 3);
    BenchCapture(&rows, n, reps);
    BenchDeltaApply(&rows, n, reps);
    BenchPartition(&rows, n, reps);
    BenchTrim(&rows, n, n <= 100'000 ? reps : 2);
    BenchSerialize(&rows, n, reps);
    BenchPartitionSerialize(&rows, n, reps);
  }
  std::printf("\n==== Buffer state: one op over the whole buffer ====\n");
  std::printf("%-15s %9s %14s %12s\n", "op", "tuples", "us", "crc32c");
  std::vector<BufferRow> buffers;
  BenchBufferState(&buffers, 20);
  std::printf("\n==== Operator get-processing-state ====\n");
  std::printf("%-15s %9s %9s %14s %14s\n", "operator", "touched%",
              "entries", "capture(us)", "+sort(us)");
  std::vector<CaptureRow> captures;
  BenchOperatorCapture(&captures, 20);
  std::printf("\n==== Operator process ====\n");
  std::printf("%-15s %9s %14s\n", "operator", "tuples", "ns/tuple");
  std::vector<ProcessRow> processes;
  BenchOperatorProcess(&processes, 10);
  std::printf("\n==== Source generate ====\n");
  std::printf("%-15s %9s %14s %20s\n", "what", "items", "ns/item",
              "checksum");
  std::vector<GenerateRow> generates;
  BenchSourceGenerate(&generates, 10);
  std::printf("\n==== Sim kernel: schedule + fire ====\n");
  std::printf("%-15s %9s %14s %20s\n", "closure(B)", "events", "ns/event",
              "checksum");
  std::vector<KernelRow> kernel;
  BenchKernelEvents<2>(&kernel, 5);
  BenchKernelEvents<8>(&kernel, 5);
  BenchKernelEvents<16>(&kernel, 5);
  WriteJson(f, rows, buffers, captures, processes, generates, kernel);
  std::fclose(f);
  std::printf("wrote %s\n", out);
  return 0;
}

}  // namespace
}  // namespace seep::bench

int main(int argc, char** argv) { return seep::bench::Main(argc, argv); }
