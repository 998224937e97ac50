// Micro-benchmark for the serialisation layer: Crc32c, the block codec over
// word-count checkpoint payloads, TupleBatch encode/decode at 8, 64 and 512
// tuples, and StateCheckpoint encode/decode, each in MB/s of the bytes it
// reads or writes (the uncompressed bytes for the block codec). Results go to
// stdout and BENCH_serde.json.
//
// The payloads come from a short deterministic word-count run driven at the
// operator level: a Zipf(1 000, 0.9) word stream at 2 000 words/s of event
// time (the word-count benchmarks' 100 sentences/s of 20 words) through a
// WordCounter, checkpointed every 5 s of event time for 60 s. Each
// checkpoint carries the counter's processing state and the last 5 s of
// words, as the splitter's buffer toward the counter holds them.
//
// Usage: bench_serde [output.json]

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/macros.h"
#include "common/rng.h"
#include "core/state.h"
#include "core/tuple.h"
#include "serde/block_codec.h"
#include "serde/crc32c.h"
#include "serde/decoder.h"
#include "serde/encoder.h"
#include "workloads/wordcount/wordcount.h"

namespace seep::bench {
namespace {

using core::StateCheckpoint;
using core::Tuple;
using core::TupleBatch;

namespace wc = workloads::wordcount;

class DiscardCollector : public core::Collector {
 public:
  void EmitTo(int port, Tuple tuple) override {}
};

struct Workload {
  std::vector<Tuple> words;  // the whole stream, in order
  std::vector<StateCheckpoint> checkpoints;
  std::vector<std::vector<uint8_t>> payloads;  // their encodings
};

Workload BuildWordCountRun() {
  constexpr size_t kWords = 120'000;  // 60 s at 2 000 words/s
  constexpr size_t kWordsPerCheckpoint = 10'000;  // every 5 s
  constexpr SimTime kEveryUs = 500;
  constexpr OperatorId kCounterOp = 3;
  constexpr core::OriginId kSplitter = 2;

  wc::WordCountConfig config;
  wc::WordCounter counter(config);
  DiscardCollector discard;
  Rng rng(0x5EED);
  const ZipfDistribution rank(config.vocabulary, config.zipf_skew);
  Workload out;
  core::BufferState buffered;
  for (size_t i = 0; i < kWords; ++i) {
    Tuple t;
    t.text = wc::SentenceSource::WordAt(rank.Sample(&rng));
    t.key = HashBytes(t.text);
    t.timestamp = static_cast<int64_t>(i) + 1;
    t.origin = kSplitter;
    t.event_time = static_cast<SimTime>(i) * kEveryUs;
    counter.Process(t, &discard);
    buffered.Append(kCounterOp, t);
    out.words.push_back(std::move(t));
    if ((i + 1) % kWordsPerCheckpoint != 0) continue;
    StateCheckpoint c;
    c.op = kCounterOp;
    c.instance = 7;
    c.seq = out.checkpoints.size() + 1;
    c.taken_at = out.words.back().event_time;
    c.positions.Set(kSplitter, out.words.back().timestamp);
    c.processing = counter.GetProcessingState();
    c.buffer = buffered;
    buffered.Trim(kCounterOp, out.words.back().timestamp);
    serde::Encoder enc;
    c.Encode(&enc);
    out.payloads.push_back(std::move(enc).TakeBuffer());
    out.checkpoints.push_back(std::move(c));
  }
  return out;
}

struct Row {
  std::string name;
  size_t bytes_per_op = 0;
  double mb_per_s = 0;
  double us_per_op = 0;
};

// Median over five trials of at least 0.2 s each; `op` processes
// `bytes_per_op` bytes per call.
template <typename Op>
Row Measure(const std::string& name, size_t bytes_per_op, Op op) {
  using Clock = std::chrono::steady_clock;
  for (int i = 0; i < 3; ++i) op();  // warm caches and allocator
  std::vector<double> us_per_op;
  for (int trial = 0; trial < 5; ++trial) {
    size_t calls = 0;
    const auto start = Clock::now();
    double elapsed_us = 0;
    do {
      for (int i = 0; i < 8; ++i) op();
      calls += 8;
      elapsed_us = std::chrono::duration<double, std::micro>(Clock::now() -
                                                             start)
                       .count();
    } while (elapsed_us < 200'000);
    us_per_op.push_back(elapsed_us / static_cast<double>(calls));
  }
  std::sort(us_per_op.begin(), us_per_op.end());
  Row row;
  row.name = name;
  row.bytes_per_op = bytes_per_op;
  row.us_per_op = us_per_op[us_per_op.size() / 2];
  row.mb_per_s = static_cast<double>(bytes_per_op) / row.us_per_op;
  std::printf("%-28s %12zu %12.1f %12.2f\n", name.c_str(), bytes_per_op,
              row.mb_per_s, row.us_per_op);
  std::fflush(stdout);
  return row;
}

// Runs `fn` over every element of `items` per timed call, so one row covers
// the whole payload set.
template <typename T, typename Fn>
auto OverAll(const std::vector<T>& items, Fn fn) {
  return [&items, fn]() {
    for (const T& item : items) fn(item);
  };
}

void WriteJson(FILE* f, const Workload& w, double ratio,
               const std::vector<Row>& rows) {
  size_t raw = 0;
  for (const auto& p : w.payloads) raw += p.size();
  std::fprintf(f,
               "{\n  \"bench\": \"serde\",\n  \"payloads\": %zu,\n"
               "  \"payload_avg_kib\": %.1f,\n"
               "  \"compression_ratio\": %.3f,\n  \"results\": [\n",
               w.payloads.size(),
               static_cast<double>(raw) / 1024.0 /
                   static_cast<double>(w.payloads.size()),
               ratio);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"case\": \"%s\", \"bytes_per_op\": %zu, "
                 "\"mb_per_s\": %.1f, \"us_per_op\": %.3f}%s\n",
                 r.name.c_str(), r.bytes_per_op, r.mb_per_s, r.us_per_op,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

int Main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_serde.json";
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path);
    return 1;
  }

  const Workload w = BuildWordCountRun();
  size_t raw_total = 0, packed_total = 0;
  std::vector<std::vector<uint8_t>> packed;
  for (const auto& p : w.payloads) {
    packed.push_back(serde::BlockCompress(p));
    raw_total += p.size();
    packed_total += packed.back().size();
    auto back = serde::BlockDecompress(packed.back(), p.size());
    SEEP_CHECK(back.ok() && back.value() == p);
  }
  const double ratio =
      static_cast<double>(packed_total) / static_cast<double>(raw_total);
  std::printf("%zu word-count checkpoint payloads, %.1f KiB average, "
              "compressed to %.3f\n",
              w.payloads.size(),
              static_cast<double>(raw_total) / 1024.0 /
                  static_cast<double>(w.payloads.size()),
              ratio);
  std::printf("%-28s %12s %12s %12s\n", "case", "bytes/op", "MB/s",
              "us/op");

  std::vector<Row> rows;
  rows.push_back(Measure("crc32c", raw_total,
                         OverAll(w.payloads, [](const auto& p) {
                           benchmark::DoNotOptimize(
                               serde::Crc32c(p.data(), p.size()));
                         })));
  rows.push_back(Measure("block_compress", raw_total,
                         OverAll(w.payloads, [](const auto& p) {
                           auto c = serde::BlockCompress(p);
                           benchmark::DoNotOptimize(c.data());
                           benchmark::ClobberMemory();
                         })));
  std::vector<std::pair<const std::vector<uint8_t>*, size_t>> blocks;
  for (size_t i = 0; i < packed.size(); ++i) {
    blocks.emplace_back(&packed[i], w.payloads[i].size());
  }
  rows.push_back(Measure("block_decompress", raw_total,
                         OverAll(blocks, [](const auto& b) {
                           auto d = serde::BlockDecompress(*b.first, b.second);
                           SEEP_CHECK(d.ok());
                           benchmark::DoNotOptimize(d.value().data());
                           benchmark::ClobberMemory();
                         })));

  for (size_t n : {size_t{8}, size_t{64}, size_t{512}}) {
    TupleBatch batch;
    batch.from = 2;
    batch.tuples.assign(w.words.begin(),
                        w.words.begin() + static_cast<ptrdiff_t>(n));
    serde::Encoder enc;
    batch.Encode(&enc);
    const std::vector<uint8_t> bytes = enc.buffer();
    const std::string suffix = "_" + std::to_string(n);
    rows.push_back(Measure("tuple_batch_encode" + suffix, bytes.size(), [&] {
      serde::Encoder e;
      batch.Encode(&e);
      benchmark::DoNotOptimize(e.buffer().data());
      benchmark::ClobberMemory();
    }));
    rows.push_back(Measure("tuple_batch_decode" + suffix, bytes.size(), [&] {
      serde::Decoder dec(bytes);
      auto b = TupleBatch::Decode(&dec);
      SEEP_CHECK(b.ok());
      benchmark::DoNotOptimize(b.value().tuples.data());
    }));
  }

  rows.push_back(Measure("state_checkpoint_encode", raw_total,
                         OverAll(w.checkpoints, [](const auto& c) {
                           serde::Encoder e;
                           c.Encode(&e);
                           benchmark::DoNotOptimize(e.buffer().data());
                           benchmark::ClobberMemory();
                         })));
  rows.push_back(Measure("state_checkpoint_decode", raw_total,
                         OverAll(w.payloads, [](const auto& p) {
                           serde::Decoder dec(p);
                           auto c = StateCheckpoint::Decode(&dec);
                           SEEP_CHECK(c.ok());
                           benchmark::DoNotOptimize(c.value().seq);
                         })));

  WriteJson(f, w, ratio, rows);
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}

}  // namespace
}  // namespace seep::bench

int main(int argc, char** argv) { return seep::bench::Main(argc, argv); }
