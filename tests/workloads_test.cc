// Unit tests for the workload operators in isolation: LRB toll formula and
// accident detection, word splitter/counter semantics, top-k reducer, and
// state externalisation roundtrips for each stateful operator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/key_range.h"
#include "serde/encoder.h"
#include "workloads/lrb/lrb.h"
#include "workloads/topk/topk.h"
#include "workloads/wordcount/wordcount.h"

namespace seep {
namespace {

// Collects emissions per port for driving operators directly.
class TestCollector : public core::Collector {
 public:
  void EmitTo(int port, core::Tuple tuple) override {
    emissions.emplace_back(port, std::move(tuple));
  }
  std::vector<std::pair<int, core::Tuple>> emissions;
};

// The wire bytes of a processing state: what a checkpoint carries.
std::vector<uint8_t> Bytes(const core::ProcessingState& state) {
  serde::Encoder enc;
  state.Encode(&enc);
  return std::move(enc).TakeBuffer();
}

// Reference state entry: one fresh encoder per entry, copied into a string,
// as every operator captured before the scratch-encoder rework.
std::string RefValue(const serde::Encoder& enc) {
  return std::string(enc.buffer().begin(), enc.buffer().end());
}

// ------------------------------------------------------------------ LRB

namespace lrb = workloads::lrb;

core::Tuple PositionReport(int64_t vid, int64_t xway, int64_t seg,
                           int64_t speed, SimTime at, bool entering = true,
                           bool stopped = false) {
  core::Tuple t;
  t.event_time = at;
  t.ints = {lrb::kPositionReport, vid, lrb::PackLocation(xway, seg),
            lrb::PackSpeed(speed, entering, stopped)};
  t.key = Mix64(static_cast<uint64_t>(lrb::PackLocation(xway, seg)));
  return t;
}

TEST(LrbOperatorsTest, FieldPackingRoundtrips) {
  const int64_t loc = lrb::PackLocation(7, 42);
  EXPECT_EQ(lrb::LocationXway(loc), 7);
  EXPECT_EQ(lrb::LocationSegment(loc), 42);
  const int64_t packed = lrb::PackSpeed(55, true, false);
  EXPECT_EQ(lrb::SpeedOf(packed), 55);
  EXPECT_TRUE(lrb::IsEntering(packed));
  EXPECT_FALSE(lrb::IsStopped(packed));
}

TEST(LrbOperatorsTest, TollChargedForCongestedSlowSegment) {
  lrb::TollCalculator calc(1);
  TestCollector out;
  // Minute 0: 60 vehicles crawl through segment (3,10) at 20 mph.
  for (int64_t vid = 0; vid < 60; ++vid) {
    calc.Process(PositionReport(vid, 3, 10, 20, SecondsToSim(10)), &out);
  }
  out.emissions.clear();
  // Minute 1: one more vehicle enters; LRB toll = 2*(count-50)^2 = 200.
  calc.Process(PositionReport(100, 3, 10, 20, SecondsToSim(70)), &out);
  int64_t toll_charge = -1;
  int64_t toll_note = -1;
  for (const auto& [port, tuple] : out.emissions) {
    if (tuple.ints[0] == lrb::kTollCharge) toll_charge = tuple.ints[2];
    if (tuple.ints[0] == lrb::kTollNotification) toll_note = tuple.ints[2];
  }
  EXPECT_EQ(toll_charge, 2 * (60 - 50) * (60 - 50));
  EXPECT_EQ(toll_note, toll_charge);
}

TEST(LrbOperatorsTest, NoTollWhenFastOrUncongested) {
  lrb::TollCalculator calc(1);
  TestCollector out;
  // Fast traffic (LAV 60 >= 40): no toll.
  for (int64_t vid = 0; vid < 60; ++vid) {
    calc.Process(PositionReport(vid, 1, 5, 60, SecondsToSim(10)), &out);
  }
  out.emissions.clear();
  calc.Process(PositionReport(99, 1, 5, 60, SecondsToSim(70)), &out);
  for (const auto& [port, tuple] : out.emissions) {
    EXPECT_NE(tuple.ints[0], lrb::kTollCharge);
  }
  // Slow but light traffic (10 < 50 vehicles): no toll either.
  out.emissions.clear();
  for (int64_t vid = 0; vid < 10; ++vid) {
    calc.Process(PositionReport(vid, 2, 5, 20, SecondsToSim(10)), &out);
  }
  out.emissions.clear();
  calc.Process(PositionReport(99, 2, 5, 20, SecondsToSim(70)), &out);
  for (const auto& [port, tuple] : out.emissions) {
    EXPECT_NE(tuple.ints[0], lrb::kTollCharge);
  }
}

TEST(LrbOperatorsTest, AccidentDetectedOnTwoStoppedVehicles) {
  lrb::TollCalculator calc(1);
  TestCollector out;
  calc.Process(PositionReport(1, 0, 7, 0, SecondsToSim(1), true, true), &out);
  EXPECT_TRUE(out.emissions.empty() ||
              out.emissions[0].second.ints[0] != lrb::kAccidentAlert);
  out.emissions.clear();
  calc.Process(PositionReport(2, 0, 7, 0, SecondsToSim(2), true, true), &out);
  bool alerted = false;
  for (const auto& [port, tuple] : out.emissions) {
    if (tuple.ints[0] == lrb::kAccidentAlert) alerted = true;
  }
  EXPECT_TRUE(alerted);
}

TEST(LrbOperatorsTest, NoTollInAccidentSegment) {
  lrb::TollCalculator calc(1);
  TestCollector out;
  // Congest the segment in minute 0, then cause an accident.
  for (int64_t vid = 0; vid < 60; ++vid) {
    calc.Process(PositionReport(vid, 0, 3, 20, SecondsToSim(10)), &out);
  }
  calc.Process(PositionReport(200, 0, 3, 0, SecondsToSim(20), true, true),
               &out);
  calc.Process(PositionReport(201, 0, 3, 0, SecondsToSim(21), true, true),
               &out);
  out.emissions.clear();
  calc.Process(PositionReport(300, 0, 3, 20, SecondsToSim(70)), &out);
  for (const auto& [port, tuple] : out.emissions) {
    EXPECT_NE(tuple.ints[0], lrb::kTollCharge);
  }
}

TEST(LrbOperatorsTest, TollCalculatorStateRoundtrip) {
  lrb::TollCalculator calc(1);
  TestCollector out;
  for (int64_t vid = 0; vid < 30; ++vid) {
    calc.Process(PositionReport(vid, 1, vid % 5, 25, SecondsToSim(10)), &out);
  }
  const core::ProcessingState state = calc.GetProcessingState();
  EXPECT_EQ(state.size(), 5u);  // 5 segments

  lrb::TollCalculator restored(1);
  restored.SetProcessingState(state);
  EXPECT_EQ(restored.GetProcessingState().size(), 5u);
}

// The toll calculator's state kept the way it was before the flat layout:
// ordered maps per segment, and the capture that walked them. The operator's
// capture must equal this reference byte for byte.
class ReferenceTollState {
 public:
  void Apply(const core::Tuple& t) {
    if (t.ints[0] != lrb::kPositionReport) return;
    const int64_t vid = t.ints[1];
    const int64_t minute = t.event_time / SecondsToSim(60);
    Segment& seg = segments_[t.ints[2]];
    auto& [count, speed_sum] = seg.minutes[minute];
    ++count;
    speed_sum += lrb::SpeedOf(t.ints[3]);
    if (lrb::IsStopped(t.ints[3])) {
      seg.stopped.insert(vid);
      if (seg.stopped.size() >= 2) seg.accident = true;
    } else {
      seg.stopped.erase(vid);
      if (seg.stopped.empty()) seg.accident = false;
    }
    while (!seg.minutes.empty() && seg.minutes.begin()->first < minute - 5) {
      seg.minutes.erase(seg.minutes.begin());
    }
  }

  core::ProcessingState Capture() const {
    core::ProcessingState state;
    for (const auto& [loc, seg] : segments_) {
      serde::Encoder enc;
      enc.AppendVarintSigned64(loc);
      enc.AppendU8(seg.accident ? 1 : 0);
      enc.AppendVarint64(seg.minutes.size());
      for (const auto& [minute, stats] : seg.minutes) {
        enc.AppendVarintSigned64(minute);
        enc.AppendVarintSigned64(stats.first);
        enc.AppendVarintSigned64(stats.second);
      }
      enc.AppendVarint64(seg.stopped.size());
      for (int64_t vid : seg.stopped) enc.AppendVarintSigned64(vid);
      state.Add(Mix64(static_cast<uint64_t>(loc)), RefValue(enc));
    }
    return state;
  }

 private:
  struct Segment {
    std::map<int64_t, std::pair<int64_t, int64_t>> minutes;
    std::set<int64_t> stopped;
    bool accident = false;
  };
  std::map<int64_t, Segment> segments_;
};

TEST(LrbOperatorsTest, TollCalculatorCaptureMatchesReferenceBytes) {
  lrb::TollCalculator calc(1);
  ReferenceTollState ref;
  TestCollector out;
  auto feed = [&](int64_t vid, int64_t xway, int64_t seg, int64_t speed,
                  double at_s, bool stopped = false) {
    const core::Tuple t = PositionReport(vid, xway, seg, speed,
                                         SecondsToSim(at_s), true, stopped);
    calc.Process(t, &out);
    ref.Apply(t);
  };
  auto expect_same = [&](const char* when) {
    SCOPED_TRACE(when);
    EXPECT_EQ(Bytes(calc.GetProcessingState()), Bytes(ref.Capture()));
  };

  // Several segments; (0, 1) sees nine minutes of traffic, so the first
  // three are garbage collected.
  for (int minute = 0; minute < 9; ++minute) {
    for (int64_t vid = 0; vid < 4; ++vid) {
      feed(vid, 0, 1, 30 + minute, minute * 60.0 + 5 + vid);
    }
    if (minute % 3 == 0) {
      feed(10 + minute, 1, 7, 55, minute * 60.0 + 10);
      feed(20 + minute, 2, 50, 70, minute * 60.0 + 20);
      feed(30 + minute, 0, 2, 45, minute * 60.0 + 30);
    }
  }
  expect_same("after nine minutes");

  // A late tuple from minute 1, older than the GC horizon (minute 3): it
  // lands in front of the live minutes until the next fresh tuple.
  feed(99, 0, 1, 20, 70);
  expect_same("after the late tuple");
  feed(98, 0, 1, 20, 8 * 60.0 + 40);
  expect_same("after the late minute is collected");

  // One vehicle stops, reports stopped again, then moves on.
  feed(500, 1, 7, 0, 8 * 60.0 + 41, /*stopped=*/true);
  feed(500, 1, 7, 0, 8 * 60.0 + 42, /*stopped=*/true);
  expect_same("while vehicle 500 is stopped");
  feed(500, 1, 7, 40, 8 * 60.0 + 43);
  expect_same("after vehicle 500 moved");

  // Two vehicles stop in (2, 50), the higher id first: an accident. It
  // clears only once both have moved.
  feed(601, 2, 50, 0, 8 * 60.0 + 44, /*stopped=*/true);
  feed(600, 2, 50, 0, 8 * 60.0 + 45, /*stopped=*/true);
  expect_same("during the accident");
  feed(601, 2, 50, 35, 8 * 60.0 + 46);
  expect_same("with one vehicle still stopped");
  feed(600, 2, 50, 35, 8 * 60.0 + 47);
  expect_same("after the accident cleared");

  // Restore reproduces the capture, and both copies keep matching the
  // reference as new segments appear after the restore.
  const core::ProcessingState state = calc.GetProcessingState();
  lrb::TollCalculator restored(1);
  restored.SetProcessingState(state);
  EXPECT_EQ(Bytes(restored.GetProcessingState()), Bytes(state));
  for (int64_t vid = 700; vid < 706; ++vid) {
    const core::Tuple t =
        PositionReport(vid, vid % 4, 90 + vid % 3, 25, SecondsToSim(600));
    calc.Process(t, &out);
    restored.Process(t, &out);
    ref.Apply(t);
  }
  expect_same("after new segments");
  EXPECT_EQ(Bytes(restored.GetProcessingState()), Bytes(ref.Capture()));
}

// A capture re-encodes only the segments that processed a tuple since the
// previous one and reuses the cached entries of the rest. Under a random
// interleaving of tuples and captures, and after partitioned restores
// (Alg. 2), every capture must still equal the reference's byte for byte.
TEST(LrbOperatorsTest, TollCalculatorCachedCaptureMatchesReference) {
  constexpr int kTuples = 20000;
  constexpr int64_t kXways = 8;
  constexpr int64_t kSegments = 40;
  constexpr int64_t kVehicles = 400;
  Rng rng(25);
  std::vector<core::Tuple> stream;
  stream.reserve(kTuples);
  for (int i = 0; i < kTuples; ++i) {
    const int64_t vid = static_cast<int64_t>(rng.NextBounded(kVehicles));
    // Half the reports come from the vehicle's home segment, so stopped
    // vehicles move on there and accidents clear.
    const int64_t where =
        rng.NextDouble() < 0.5
            ? vid % (kXways * kSegments)
            : static_cast<int64_t>(rng.NextBounded(kXways * kSegments));
    const bool stopped = rng.NextDouble() < 0.05;
    const auto speed =
        stopped ? 0 : static_cast<int64_t>(rng.NextBounded(100));
    const bool entering = rng.NextDouble() < 0.5;
    // Minutes advance, about twenty over the stream; 2 % of the tuples are
    // late, older than the GC horizon of their segment's newest minute.
    double at_s = i * 0.06;
    if (rng.NextDouble() < 0.02) {
      at_s = std::max(0.0, at_s - 60.0 * static_cast<double>(
                                             6 + rng.NextBounded(4)));
    }
    stream.push_back(PositionReport(vid, where / kSegments,
                                    where % kSegments, speed,
                                    SecondsToSim(at_s), entering, stopped));
  }

  // A calculator restored from one partition of a capture, and a reference
  // that has seen exactly that partition's tuples from the start.
  struct Partition {
    core::KeyRange range;
    lrb::TollCalculator calc{1};
    ReferenceTollState ref;
  };
  const std::vector<core::KeyRange> ranges =
      core::KeyRange::Full().SplitEven(3);
  std::vector<std::unique_ptr<Partition>> parts;
  lrb::TollCalculator calc(1);
  ReferenceTollState ref;
  TestCollector out;
  int captures = 0;
  auto expect_same = [&](int at) {
    SCOPED_TRACE("capture " + std::to_string(captures) + " after tuple " +
                 std::to_string(at));
    ++captures;
    EXPECT_EQ(Bytes(calc.GetProcessingState()), Bytes(ref.Capture()));
    for (const auto& part : parts) {
      EXPECT_EQ(Bytes(part->calc.GetProcessingState()),
                Bytes(part->ref.Capture()));
    }
  };

  uint64_t next_capture = rng.NextBounded(51);
  uint64_t since_capture = 0;
  for (int i = 0; i < kTuples && !HasFailure(); ++i) {
    if (i > 0 && i % (kTuples / 4) == 0) {
      auto& part = parts.emplace_back(std::make_unique<Partition>());
      part->range = ranges[parts.size() - 1];
      part->calc.SetProcessingState(
          calc.GetProcessingState().FilterByRange(part->range));
      for (int j = 0; j < i; ++j) {
        if (part->range.Contains(stream[j].key)) part->ref.Apply(stream[j]);
      }
      expect_same(i);
    }
    const core::Tuple& t = stream[i];
    calc.Process(t, &out);
    ref.Apply(t);
    for (const auto& part : parts) {
      if (!part->range.Contains(t.key)) continue;
      part->calc.Process(t, &out);
      part->ref.Apply(t);
    }
    out.emissions.clear();
    // After every 0-50 tuples; a draw of 0 takes two captures in a row.
    for (++since_capture; since_capture >= next_capture;
         next_capture = rng.NextBounded(51)) {
      expect_same(i);
      since_capture = 0;
    }
  }
  EXPECT_EQ(parts.size(), 3u);
  EXPECT_GT(captures, 500);
}

TEST(LrbOperatorsTest, AssessmentAccumulatesAndAnswersQueries) {
  lrb::TollAssessment assessment(1);
  TestCollector out;
  core::Tuple charge;
  charge.ints = {lrb::kTollCharge, /*vid=*/9, /*toll=*/50, 0};
  assessment.Process(charge, &out);
  assessment.Process(charge, &out);
  EXPECT_TRUE(out.emissions.empty());

  core::Tuple query;
  query.ints = {lrb::kBalanceQuery, 9, /*qid=*/1, 0};
  assessment.Process(query, &out);
  ASSERT_EQ(out.emissions.size(), 1u);
  EXPECT_EQ(out.emissions[0].second.ints[0], lrb::kBalanceAnswer);
  EXPECT_EQ(out.emissions[0].second.ints[2], 100);

  // State externalisation roundtrip preserves balances.
  lrb::TollAssessment restored(1);
  restored.SetProcessingState(assessment.GetProcessingState());
  out.emissions.clear();
  restored.Process(query, &out);
  ASSERT_EQ(out.emissions.size(), 1u);
  EXPECT_EQ(out.emissions[0].second.ints[2], 100);
}

TEST(LrbOperatorsTest, AssessmentAndAccountCaptureMatchReferenceBytes) {
  lrb::TollAssessment assessment(1);
  lrb::BalanceAccount account(1);
  TestCollector out;
  // The reference: balances and latest answers by vehicle, and the
  // vehicles charged since the last delta.
  std::map<int64_t, int64_t> balances;
  std::map<int64_t, std::pair<int64_t, int64_t>> latest;
  std::set<int64_t> charged;
  auto charge = [&](int64_t vid, int64_t toll) {
    core::Tuple t;
    t.ints = {lrb::kTollCharge, vid, toll, 0};
    assessment.Process(t, &out);
    balances[vid] += toll;
    charged.insert(vid);
  };
  auto answer = [&](int64_t vid, int64_t qid, int64_t balance) {
    core::Tuple t;
    t.ints = {lrb::kBalanceAnswer, vid, balance, qid};
    account.Process(t, &out);
    auto& [q, b] = latest[vid];
    if (qid >= q) {
      q = qid;
      b = balance;
    }
  };
  auto ref_balances = [&](bool only_charged) {
    core::ProcessingState state;
    for (const auto& [vid, balance] : balances) {
      if (only_charged && !charged.contains(vid)) continue;
      serde::Encoder enc;
      enc.AppendVarintSigned64(vid);
      enc.AppendVarintSigned64(balance);
      state.Add(Mix64(static_cast<uint64_t>(vid)), RefValue(enc));
    }
    return state;
  };
  auto ref_latest = [&] {
    core::ProcessingState state;
    for (const auto& [vid, entry] : latest) {
      serde::Encoder enc;
      enc.AppendVarintSigned64(vid);
      enc.AppendVarintSigned64(entry.first);
      enc.AppendVarintSigned64(entry.second);
      state.Add(Mix64(static_cast<uint64_t>(vid)), RefValue(enc));
    }
    return state;
  };

  for (int64_t vid = 0; vid < 40; ++vid) charge(vid * 7 - 50, 2 * vid + 1);
  charge(-50, 1000);
  for (int64_t vid = 0; vid < 30; ++vid) answer(vid, 100 - vid, vid * 3);
  answer(4, 10, 999);  // an older query's answer does not overwrite
  answer(5, 200, 7);   // a newer one does
  EXPECT_EQ(Bytes(assessment.GetProcessingState()),
            Bytes(ref_balances(false)));
  EXPECT_EQ(Bytes(account.GetProcessingState()), Bytes(ref_latest()));

  // Deltas carry exactly the vehicles charged since the previous one.
  core::StateDelta first = assessment.TakeProcessingStateDelta();
  EXPECT_EQ(Bytes(first.updated), Bytes(ref_balances(true)));
  EXPECT_TRUE(first.deleted.empty());
  charged.clear();
  charge(13, 5);
  charge(-50, 5);
  charge(13, 6);
  core::StateDelta second = assessment.TakeProcessingStateDelta();
  EXPECT_EQ(second.updated.size(), 2u);
  EXPECT_EQ(Bytes(second.updated), Bytes(ref_balances(true)));
  EXPECT_TRUE(second.deleted.empty());

  lrb::TollAssessment restored_assessment(1);
  restored_assessment.SetProcessingState(assessment.GetProcessingState());
  EXPECT_EQ(Bytes(restored_assessment.GetProcessingState()),
            Bytes(ref_balances(false)));
  EXPECT_TRUE(restored_assessment.TakeProcessingStateDelta().updated.empty());
  lrb::BalanceAccount restored_account(1);
  restored_account.SetProcessingState(account.GetProcessingState());
  EXPECT_EQ(Bytes(restored_account.GetProcessingState()), Bytes(ref_latest()));
}

TEST(LrbSourceTest, RateFollowsConfiguredRamp) {
  lrb::LrbConfig cfg;
  cfg.num_xways = 4;
  cfg.duration_s = 100;
  cfg.initial_rate_per_xway = 10;
  cfg.peak_rate_per_xway = 100;
  lrb::LrbSource source(cfg, 0, 1);
  EXPECT_NEAR(source.TargetRate(0), 40, 1);
  EXPECT_NEAR(source.TargetRate(SecondsToSim(100)), 400, 1);
  EXPECT_LT(source.TargetRate(SecondsToSim(50)), 200);  // superlinear ramp
}

TEST(LrbSourceTest, GeneratesConfiguredMixOfTuples) {
  lrb::LrbConfig cfg;
  cfg.num_xways = 1;
  cfg.duration_s = 100;
  cfg.initial_rate_per_xway = 1000;
  cfg.peak_rate_per_xway = 1000;
  cfg.balance_query_fraction = 0.1;
  lrb::LrbSource source(cfg, 0, 1);
  TestCollector out;
  source.GenerateBatch(SecondsToSim(1), SecondsToSim(10), &out);
  size_t reports = 0, queries = 0;
  for (const auto& [port, tuple] : out.emissions) {
    if (tuple.ints[0] == lrb::kPositionReport) ++reports;
    if (tuple.ints[0] == lrb::kBalanceQuery) ++queries;
  }
  EXPECT_NEAR(static_cast<double>(reports + queries), 10000, 10);
  EXPECT_NEAR(static_cast<double>(queries) / (reports + queries), 0.1, 0.02);
}

// ------------------------------------------------------------- Word count

namespace wc = workloads::wordcount;

TEST(WordCountOperatorsTest, SplitterTokenises) {
  wc::WordSplitter splitter(1);
  TestCollector out;
  core::Tuple sentence;
  sentence.text = "the cat  sat ";
  sentence.event_time = 123;
  splitter.Process(sentence, &out);
  ASSERT_EQ(out.emissions.size(), 3u);
  EXPECT_EQ(out.emissions[0].second.text, "the");
  EXPECT_EQ(out.emissions[1].second.text, "cat");
  EXPECT_EQ(out.emissions[2].second.text, "sat");
  EXPECT_EQ(out.emissions[0].second.key, HashBytes("the"));
  EXPECT_EQ(out.emissions[0].second.event_time, 123);
}

TEST(WordCountOperatorsTest, CounterWindowsByEventTime) {
  wc::WordCountConfig cfg;
  cfg.window = SecondsToSim(30);
  cfg.probe_every_n = 0;  // no probes in this test
  wc::WordCounter counter(cfg);
  TestCollector out;
  core::Tuple word;
  word.text = "cat";
  word.key = HashBytes("cat");
  word.event_time = SecondsToSim(5);  // window 0
  counter.Process(word, &out);
  counter.Process(word, &out);
  word.event_time = SecondsToSim(35);  // window 1
  counter.Process(word, &out);
  EXPECT_TRUE(out.emissions.empty());

  // Closing window 0 at t=60 emits both windows' finals? Only window 0 and
  // window 1 are closed at t=60... window 1 spans [30,60) so it is closed.
  counter.OnTimer(SecondsToSim(60), &out);
  std::map<int64_t, int64_t> finals;
  for (const auto& [port, tuple] : out.emissions) {
    finals[tuple.ints[0]] = tuple.ints[1];
  }
  EXPECT_EQ(finals[0], 2);
  EXPECT_EQ(finals[1], 1);
}

TEST(WordCountOperatorsTest, CounterStateMergeIsAdditive) {
  wc::WordCountConfig cfg;
  cfg.probe_every_n = 0;
  wc::WordCounter a(cfg), b(cfg), merged(cfg);
  TestCollector out;
  core::Tuple word;
  word.text = "dog";
  word.key = HashBytes("dog");
  word.event_time = SecondsToSim(1);
  a.Process(word, &out);
  a.Process(word, &out);
  b.Process(word, &out);

  merged.SetProcessingState(a.GetProcessingState());
  merged.MergeProcessingState(b.GetProcessingState());
  merged.OnTimer(SecondsToSim(60), &out);
  ASSERT_FALSE(out.emissions.empty());
  EXPECT_EQ(out.emissions.back().second.ints[1], 3);
}

TEST(WordCountOperatorsTest, CounterCaptureAndDeltaMatchReferenceBytes) {
  wc::WordCountConfig cfg;
  cfg.window = SecondsToSim(30);
  cfg.retained_windows = 2;
  cfg.probe_every_n = 0;
  wc::WordCounter counter(cfg);
  TestCollector out;
  // The reference: counts by word and window, and the words changed or
  // removed since the last delta.
  std::map<std::string, std::map<int64_t, int64_t>> ref;
  std::set<std::string> dirty, removed;
  auto feed = [&](const std::string& word, double at_s) {
    core::Tuple t;
    t.text = word;
    t.key = HashBytes(word);
    t.event_time = SecondsToSim(at_s);
    counter.Process(t, &out);
    ++ref[word][t.event_time / cfg.window];
    dirty.insert(word);
    removed.erase(word);  // a word that comes back is updated, not deleted
  };
  auto timer = [&](double at_s) {
    counter.OnTimer(SecondsToSim(at_s), &out);
    const int64_t horizon =
        SecondsToSim(at_s) / cfg.window - cfg.retained_windows;
    for (auto word = ref.begin(); word != ref.end();) {
      auto& windows = word->second;
      while (!windows.empty() && windows.begin()->first < horizon) {
        windows.erase(windows.begin());
        dirty.insert(word->first);
      }
      if (!windows.empty()) {
        ++word;
        continue;
      }
      removed.insert(word->first);
      dirty.erase(word->first);
      word = ref.erase(word);
    }
  };
  auto ref_state = [&](bool only_dirty) {
    core::ProcessingState state;
    for (const auto& [word, windows] : ref) {
      if (only_dirty && !dirty.contains(word)) continue;
      serde::Encoder enc;
      enc.AppendString(word);
      enc.AppendVarint64(windows.size());
      for (const auto& [win, count] : windows) {
        enc.AppendVarintSigned64(win);
        enc.AppendVarintSigned64(count);
      }
      state.Add(HashBytes(word), RefValue(enc));
    }
    return state;
  };
  auto expect_delta = [&](const char* when) {
    SCOPED_TRACE(when);
    const core::StateDelta delta = counter.TakeProcessingStateDelta();
    EXPECT_EQ(Bytes(delta.updated), Bytes(ref_state(true)));
    std::vector<KeyHash> deleted;
    for (const std::string& word : removed) deleted.push_back(HashBytes(word));
    EXPECT_EQ(delta.deleted, deleted);
    dirty.clear();
    removed.clear();
  };

  const std::string words[] = {"the", "cat", "sat", "on", "a", "mat", "zebra"};
  for (int i = 0; i < 60; ++i) {
    feed(words[(i * i) % std::size(words)], i * 2.0);  // windows 0..3
  }
  EXPECT_EQ(Bytes(counter.GetProcessingState()), Bytes(ref_state(false)));
  expect_delta("first delta");

  feed("cat", 121);
  feed("late", 10);  // re-opens closed window 0 for a new word
  expect_delta("two words touched");

  // At 150 s windows below 3 expire: words seen only there are deleted.
  timer(150);
  EXPECT_EQ(Bytes(counter.GetProcessingState()), Bytes(ref_state(false)));
  expect_delta("after expiry");

  // At 180 s window 3 expires; "sat", seen last there, returns before the
  // next delta.
  timer(180);
  ASSERT_TRUE(removed.contains("sat"));
  feed("sat", 175);
  EXPECT_EQ(Bytes(counter.GetProcessingState()), Bytes(ref_state(false)));
  expect_delta("expired word fed again");

  const core::ProcessingState state = counter.GetProcessingState();
  wc::WordCounter restored(cfg);
  restored.SetProcessingState(state);
  EXPECT_EQ(Bytes(restored.GetProcessingState()), Bytes(state));
  const core::StateDelta none = restored.TakeProcessingStateDelta();
  EXPECT_TRUE(none.updated.empty());
  EXPECT_TRUE(none.deleted.empty());
}

// A word whose windows all expire and which comes back before the next delta
// must be updated, not deleted: ApplyDelta lets a deletion win, so the
// holder's base would lose counts its acknowledged positions cover.
TEST(WordCountOperatorsTest, CounterDeltaKeepsWordThatReturnsAfterExpiry) {
  wc::WordCountConfig cfg;
  cfg.window = SecondsToSim(30);
  cfg.retained_windows = 2;
  cfg.probe_every_n = 0;
  wc::WordCounter counter(cfg);
  TestCollector out;
  auto feed = [&](const std::string& word, double at_s) {
    core::Tuple t;
    t.text = word;
    t.key = HashBytes(word);
    t.event_time = SecondsToSim(at_s);
    counter.Process(t, &out);
  };
  feed("cat", 5);
  feed("dog", 5);
  feed("dog", 100);
  core::ProcessingState base = counter.GetProcessingState();
  counter.ClearStateDelta();  // as a full checkpoint does

  counter.OnTimer(SecondsToSim(100), &out);  // window 0 expires: "cat" goes
  feed("cat", 110);                          // and comes back in window 3
  const core::StateDelta delta = counter.TakeProcessingStateDelta();
  EXPECT_TRUE(delta.deleted.empty());
  base.ApplyDelta(delta.updated, delta.deleted);
  EXPECT_EQ(Bytes(base), Bytes(counter.GetProcessingState()));
}

// The counter's window-close output against a reference: one final per
// closed window whose count changed since its last final, as (window, count,
// final=1), in word order; and merged words are dirty for the next delta.
TEST(WordCountOperatorsTest, CounterTimerEmitsChangedFinalsInWordOrder) {
  wc::WordCountConfig cfg;
  cfg.window = SecondsToSim(30);
  cfg.retained_windows = 2;
  cfg.probe_every_n = 0;
  wc::WordCounter counter(cfg);
  TestCollector out;
  // The reference: (count, count at the last final) by word and window.
  std::map<std::string, std::map<int64_t, std::pair<int64_t, int64_t>>> ref;
  auto feed = [&](const std::string& word, double at_s) {
    core::Tuple t;
    t.text = word;
    t.key = HashBytes(word);
    t.event_time = SecondsToSim(at_s);
    counter.Process(t, &out);
    ++ref[word][t.event_time / cfg.window].first;
  };
  // Fires both timers and returns how many finals the reference emitted.
  auto timer = [&](double at_s) {
    out.emissions.clear();
    counter.OnTimer(SecondsToSim(at_s), &out);
    const int64_t current = SecondsToSim(at_s) / cfg.window;
    std::vector<core::Tuple> want;
    for (auto word = ref.begin(); word != ref.end();) {
      auto& windows = word->second;
      for (auto it = windows.begin(); it != windows.end();) {
        auto& [win, cell] = *it;
        if (win >= current) {
          ++it;
          continue;
        }
        if (cell.first != cell.second) {
          core::Tuple final_count;
          final_count.key = HashBytes(word->first);
          final_count.event_time = (win + 1) * cfg.window;
          final_count.text = word->first;
          final_count.ints = {win, cell.first, /*final=*/1, 0};
          final_count.latency_sample = false;
          want.push_back(final_count);
          cell.second = cell.first;
        }
        it = win < current - cfg.retained_windows ? windows.erase(it)
                                                  : std::next(it);
      }
      word = windows.empty() ? ref.erase(word) : std::next(word);
    }
    EXPECT_EQ(out.emissions.size(), want.size());
    for (size_t i = 0; i < std::min(want.size(), out.emissions.size()); ++i) {
      SCOPED_TRACE(i);
      const auto& [port, got] = out.emissions[i];
      EXPECT_EQ(port, 0);
      EXPECT_EQ(got.text, want[i].text);
      EXPECT_EQ(got.key, want[i].key);
      EXPECT_EQ(got.event_time, want[i].event_time);
      EXPECT_EQ(got.ints, want[i].ints);
      EXPECT_FALSE(got.latency_sample);
    }
    return want.size();
  };

  const std::string words[] = {"zebra", "ant", "w10", "w9", "mole", "cat"};
  for (int i = 0; i < 90; ++i) {
    feed(words[(i * 5 + i / 7) % std::size(words)], i * 1.0);  // windows 0-2
  }
  EXPECT_EQ(timer(60), 2 * std::size(words));  // windows 0 and 1 close
  EXPECT_EQ(timer(75), 0u);                    // nothing changed

  // A late tuple into closed window 0, still retained, corrects its final.
  feed("ant", 12);
  ASSERT_EQ(timer(80), 1u);
  EXPECT_EQ(out.emissions[0].second.text, "ant");
  EXPECT_EQ(out.emissions[0].second.ints[0], 0);

  // At 130 s windows 2 and 3 are closed and windows 0 and 1 expire.
  feed("cat", 95);
  feed("yak", 100);
  EXPECT_EQ(timer(130), std::size(words) + 2);

  // Merging another partition: every merged word, new or not, is in the
  // next delta, and its merged windows get a final again.
  counter.ClearStateDelta();
  wc::WordCounter other(cfg);
  std::set<KeyHash> merged_keys;
  for (const std::string word : {"ant", "bee", "yak"}) {
    core::Tuple t;
    t.text = word;
    t.key = HashBytes(word);
    t.event_time = SecondsToSim(110);
    other.Process(t, &out);
    ++ref[word][t.event_time / cfg.window].first;
    merged_keys.insert(t.key);
  }
  counter.MergeProcessingState(other.GetProcessingState());
  const core::StateDelta delta = counter.TakeProcessingStateDelta();
  const core::ProcessingState full = counter.GetProcessingState();
  core::ProcessingState want;
  for (const auto& [key, value] : full.entries()) {
    if (merged_keys.contains(key)) want.Add(key, value);
  }
  EXPECT_EQ(delta.updated.size(), merged_keys.size());
  EXPECT_EQ(Bytes(delta.updated), Bytes(want));
  EXPECT_TRUE(delta.deleted.empty());
  EXPECT_EQ(timer(130), merged_keys.size());
}

TEST(WordCountOperatorsTest, ProbeEmittedEveryN) {
  wc::WordCountConfig cfg;
  cfg.probe_every_n = 5;
  wc::WordCounter counter(cfg);
  TestCollector out;
  core::Tuple word;
  word.text = "x";
  word.key = HashBytes("x");
  for (int i = 0; i < 25; ++i) counter.Process(word, &out);
  EXPECT_EQ(out.emissions.size(), 5u);
  EXPECT_EQ(out.emissions[0].second.ints[2], 0);  // probe flag
}

TEST(WordCountSourceTest, SentencesHaveConfiguredShape) {
  wc::WordCountConfig cfg;
  cfg.rate_tuples_per_sec = 100;
  cfg.words_per_sentence = 20;
  wc::SentenceSource source(cfg, 0, 1);
  TestCollector out;
  source.GenerateBatch(0, SecondsToSim(1), &out);
  ASSERT_EQ(out.emissions.size(), 100u);
  // Each sentence has exactly 20 space-separated words.
  const std::string& s = out.emissions[0].second.text;
  EXPECT_EQ(std::count(s.begin(), s.end(), ' '), 19);
}

TEST(WordCountSourceTest, AppendWordMatchesToString) {
  const size_t indices[] = {0,   9,    10, 99, 100, 999, 1000,
                            size_t{1} << 32, SIZE_MAX};
  for (size_t i : indices) {
    std::string sentence = "x ";
    wc::SentenceSource::AppendWord(&sentence, i);
    EXPECT_EQ(sentence, "x w" + std::to_string(i));
    EXPECT_EQ(wc::SentenceSource::WordAt(i), "w" + std::to_string(i));
  }
}

// Hash of every field a workload reads (event time, key, integers, text)
// over the first `n` tuples a source generates in 100 ms ticks.
uint64_t Fingerprint(core::SourceGenerator* source, size_t n) {
  TestCollector out;
  for (SimTime now = 0; out.emissions.size() < n; now += MillisToSim(100)) {
    source->GenerateBatch(now, MillisToSim(100), &out);
  }
  uint64_t h = 0;
  for (size_t i = 0; i < n; ++i) {
    const core::Tuple& t = out.emissions[i].second;
    h = HashCombine(h, static_cast<uint64_t>(t.event_time));
    h = HashCombine(h, t.key);
    for (int64_t v : t.ints) h = HashCombine(h, static_cast<uint64_t>(v));
    h = HashCombine(h, HashBytes(t.text));
  }
  return h;
}

// The generated inputs are pinned: every word-count and top-k figure is
// built on them, so a change to the sources' formatting or to the Zipf
// sampler must reproduce these tuples exactly.
TEST(SourceFingerprintTest, SentenceSourceIsPinned) {
  wc::SentenceSource source(wc::WordCountConfig{}, 0, 1);
  EXPECT_EQ(Fingerprint(&source, 2000), 0x5fa21b4965cd1005ull);
}

TEST(SourceFingerprintTest, PageViewSourceIsPinned) {
  workloads::topk::TopKConfig config;
  config.seed = 1;
  workloads::topk::PageViewSource source(config, 0, 1);
  EXPECT_EQ(Fingerprint(&source, 2000), 0xfb0209ff5b25f4c8ull);
}

// ----------------------------------------------------------------- Top-k

namespace topk = workloads::topk;

TEST(TopKOperatorsTest, MapStripsPayload) {
  topk::MapProject map(1);
  TestCollector out;
  core::Tuple raw;
  raw.key = 77;
  raw.event_time = 5;
  raw.ints = {3, 999, 999, 0};
  raw.text = "junk-payload-to-strip";
  map.Process(raw, &out);
  ASSERT_EQ(out.emissions.size(), 1u);
  const core::Tuple& projected = out.emissions[0].second;
  EXPECT_EQ(projected.key, 77u);
  EXPECT_EQ(projected.ints[0], 3);
  EXPECT_TRUE(projected.text.empty());
}

TEST(TopKOperatorsTest, ReducerEmitsPartialsAtWindowClose) {
  topk::TopKConfig cfg;
  cfg.window = SecondsToSim(30);
  topk::TopKReducer reducer(cfg);
  TestCollector out;
  core::Tuple view;
  view.ints = {5, 0, 0, 0};
  view.event_time = SecondsToSim(10);
  reducer.Process(view, &out);
  reducer.Process(view, &out);
  reducer.OnTimer(SecondsToSim(35), &out);
  ASSERT_EQ(out.emissions.size(), 1u);
  EXPECT_EQ(out.emissions[0].second.ints[0], 0);  // window
  EXPECT_EQ(out.emissions[0].second.ints[1], 5);  // language
  EXPECT_EQ(out.emissions[0].second.ints[2], 2);  // count
}

TEST(TopKOperatorsTest, SinkMaxMergesPartials) {
  auto results = std::make_shared<topk::TopKSink::Results>();
  topk::TopKSink sink(results);
  core::Tuple partial;
  partial.ints = {0, 7, 10, 0};
  sink.Consume(partial, 0);
  partial.ints = {0, 7, 8, 0};  // stale smaller partial
  sink.Consume(partial, 0);
  partial.ints = {0, 3, 25, 0};
  sink.Consume(partial, 0);
  const auto top = results->TopK(0, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, 3);
  EXPECT_EQ(top[0].second, 25);
  EXPECT_EQ(top[1].second, 10);
}

TEST(TopKOperatorsTest, ReducerStateRoundtrip) {
  topk::TopKConfig cfg;
  topk::TopKReducer a(cfg), b(cfg);
  TestCollector out;
  core::Tuple view;
  view.ints = {2, 0, 0, 0};
  view.event_time = SecondsToSim(1);
  for (int i = 0; i < 5; ++i) a.Process(view, &out);
  b.SetProcessingState(a.GetProcessingState());
  b.OnTimer(SecondsToSim(60), &out);
  ASSERT_FALSE(out.emissions.empty());
  EXPECT_EQ(out.emissions.back().second.ints[2], 5);
}

TEST(TopKOperatorsTest, ReducerCaptureAndDeltaMatchReferenceBytes) {
  topk::TopKConfig cfg;
  cfg.window = SecondsToSim(30);
  topk::TopKReducer reducer(cfg);
  TestCollector out;
  // The reference: counts by language and window, and the languages
  // changed or removed since the last delta.
  std::map<int64_t, std::map<int64_t, int64_t>> ref;
  std::set<int64_t> dirty, removed;
  auto feed = [&](int64_t lang, double at_s) {
    core::Tuple t;
    t.ints = {lang, 0, 0, 0};
    t.event_time = SecondsToSim(at_s);
    reducer.Process(t, &out);
    ++ref[lang][t.event_time / cfg.window];
    dirty.insert(lang);
  };
  auto ref_state = [&](bool only_dirty) {
    core::ProcessingState state;
    for (const auto& [lang, windows] : ref) {
      if (only_dirty && !dirty.contains(lang)) continue;
      serde::Encoder enc;
      enc.AppendVarintSigned64(lang);
      enc.AppendVarint64(windows.size());
      for (const auto& [win, count] : windows) {
        enc.AppendVarintSigned64(win);
        enc.AppendVarintSigned64(count);
      }
      state.Add(Mix64(static_cast<uint64_t>(lang)), RefValue(enc));
    }
    return state;
  };

  for (int i = 0; i < 80; ++i) feed((i * 37) % 11 - 3, i * 1.5);  // 0..3
  EXPECT_EQ(Bytes(reducer.GetProcessingState()), Bytes(ref_state(false)));
  core::StateDelta delta = reducer.TakeProcessingStateDelta();
  EXPECT_EQ(Bytes(delta.updated), Bytes(ref_state(true)));
  EXPECT_TRUE(delta.deleted.empty());
  dirty.clear();

  // The reducer keeps two closed windows: at 150 s (window 5) windows 0-2
  // expire, and language 42, seen only in window 0, is deleted.
  feed(42, 5);
  feed(4, 140);
  reducer.OnTimer(SecondsToSim(150), &out);
  for (auto lang = ref.begin(); lang != ref.end();) {
    auto& windows = lang->second;
    while (!windows.empty() && windows.begin()->first < 3) {
      windows.erase(windows.begin());
      dirty.insert(lang->first);
    }
    if (!windows.empty()) {
      ++lang;
      continue;
    }
    removed.insert(lang->first);
    dirty.erase(lang->first);
    lang = ref.erase(lang);
  }
  ASSERT_TRUE(removed.contains(42));
  EXPECT_EQ(Bytes(reducer.GetProcessingState()), Bytes(ref_state(false)));
  delta = reducer.TakeProcessingStateDelta();
  EXPECT_EQ(Bytes(delta.updated), Bytes(ref_state(true)));
  std::vector<KeyHash> deleted;
  for (int64_t lang : removed) {
    deleted.push_back(Mix64(static_cast<uint64_t>(lang)));
  }
  EXPECT_EQ(delta.deleted, deleted);

  const core::ProcessingState state = reducer.GetProcessingState();
  topk::TopKReducer restored(cfg);
  restored.SetProcessingState(state);
  EXPECT_EQ(Bytes(restored.GetProcessingState()), Bytes(state));
  EXPECT_TRUE(restored.TakeProcessingStateDelta().updated.empty());
}

// As CounterDeltaKeepsWordThatReturnsAfterExpiry, for a language.
TEST(TopKOperatorsTest, ReducerDeltaKeepsLanguageThatReturnsAfterExpiry) {
  topk::TopKConfig cfg;
  cfg.window = SecondsToSim(30);
  topk::TopKReducer reducer(cfg);
  TestCollector out;
  auto feed = [&](int64_t lang, double at_s) {
    core::Tuple t;
    t.ints = {lang, 0, 0, 0};
    t.event_time = SecondsToSim(at_s);
    reducer.Process(t, &out);
  };
  feed(7, 5);
  feed(8, 5);
  feed(8, 100);
  core::ProcessingState base = reducer.GetProcessingState();
  reducer.ClearStateDelta();  // as a full checkpoint does

  reducer.OnTimer(SecondsToSim(100), &out);  // window 0 expires: 7 goes
  feed(7, 110);                              // and comes back in window 3
  const core::StateDelta delta = reducer.TakeProcessingStateDelta();
  EXPECT_TRUE(delta.deleted.empty());
  base.ApplyDelta(delta.updated, delta.deleted);
  EXPECT_EQ(Bytes(base), Bytes(reducer.GetProcessingState()));
}

}  // namespace
}  // namespace seep
