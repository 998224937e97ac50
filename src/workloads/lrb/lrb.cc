#include "workloads/lrb/lrb.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/hash.h"
#include "serde/decoder.h"
#include "serde/encoder.h"

namespace seep::workloads::lrb {

namespace {

constexpr SimTime kMinute = 60 * kMicrosPerSecond;

/// First entry of an ascending-by-minute vector at or after `minute`.
template <typename Minutes>
auto MinuteLowerBound(Minutes& minutes, int64_t minute) {
  return std::lower_bound(
      minutes.begin(), minutes.end(), minute,
      [](const auto& stats, int64_t m) { return stats.minute < m; });
}

}  // namespace

double LrbConfig::ScaledRatePerXway(double t_seconds) const {
  const double ramp = ramp_duration_s > 0 ? ramp_duration_s : duration_s;
  const double frac = std::clamp(t_seconds / ramp, 0.0, 1.0);
  const double rate = initial_rate_per_xway +
                      (peak_rate_per_xway - initial_rate_per_xway) *
                          std::pow(frac, ramp_exponent);
  return rate / load_scale;
}

// -------------------------------------------------------------------- source

LrbSource::LrbSource(const LrbConfig& config, uint32_t index, uint32_t count)
    : config_(config),
      index_(index),
      count_(count),
      rng_(HashCombine(config.seed, index)) {}

double LrbSource::TargetRate(SimTime now) const {
  return config_.ScaledRatePerXway(SimToSeconds(now)) *
         static_cast<double>(config_.num_xways) / static_cast<double>(count_);
}

void LrbSource::GenerateBatch(SimTime now, SimTime dt, core::Collector* emit) {
  const double t = SimToSeconds(now);
  // Accident lifecycle per express-way this source covers.
  for (uint32_t xw = index_; xw < config_.num_xways; xw += count_) {
    auto it = accidents_.find(xw);
    if (it != accidents_.end() && it->second.until < now) {
      accidents_.erase(it);
      it = accidents_.end();
    }
    if (it == accidents_.end() &&
        rng_.NextDouble() <
            config_.accident_rate_per_sec * SimToSeconds(dt)) {
      accidents_[xw] = {
          static_cast<int64_t>(rng_.NextBounded(config_.segments_per_xway)),
          now + SecondsToSim(config_.accident_duration_s)};
    }
  }

  const double want = TargetRate(now) * SimToSeconds(dt) + carry_;
  const auto n = static_cast<size_t>(want);
  carry_ = want - static_cast<double>(n);

  // Active vehicle population. Congestion (density, speed) reflects the
  // TRUE unscaled traffic; the *identity space* of sampled vehicles is
  // load-scaled so per-VM state (toll balances) matches the paper's
  // per-VM scale rather than growing 64x with the cost scaling.
  const double scaled_rate = config_.ScaledRatePerXway(t);
  const double true_rate = scaled_rate * config_.load_scale;
  const auto true_vehicles_per_xway = std::max<int64_t>(
      1, static_cast<int64_t>(true_rate * config_.report_interval_s));
  const auto vehicles_per_xway = std::max<int64_t>(
      1, static_cast<int64_t>(scaled_rate * config_.report_interval_s));
  const int64_t period = static_cast<int64_t>(
      t / config_.report_interval_s);

  for (size_t i = 0; i < n; ++i) {
    core::Tuple tuple;
    tuple.event_time = now;

    if (rng_.NextDouble() < config_.balance_query_fraction) {
      const int64_t vid = static_cast<int64_t>(rng_.NextBounded(
          static_cast<uint64_t>(vehicles_per_xway) * config_.num_xways));
      tuple.ints = {kBalanceQuery, vid, ++query_counter_, 0};
      tuple.key = Mix64(static_cast<uint64_t>(vid));
      emit->Emit(std::move(tuple));
      continue;
    }

    // Position report: vehicles advance one segment per reporting period.
    const int64_t local_vid = static_cast<int64_t>(
        rng_.NextBounded(static_cast<uint64_t>(vehicles_per_xway)));
    const auto xway = static_cast<int64_t>(
        index_ + count_ * rng_.NextBounded(std::max<uint64_t>(
                              1, config_.num_xways / count_)));
    const int64_t vid = local_vid * config_.num_xways + xway;
    const int64_t segment =
        (local_vid * 13 + period) % config_.segments_per_xway;

    // Density-dependent speed: congested segments slow down (which is what
    // makes tolls kick in as the ramp grows). The slope is calibrated so
    // segments drop under the LRB toll threshold (LAV < 40 mph) once a
    // segment holds more than ~50 vehicles.
    const double density =
        static_cast<double>(true_vehicles_per_xway) /
        config_.segments_per_xway;
    int64_t speed = std::max<int64_t>(
        5, 90 - static_cast<int64_t>(density) +
               static_cast<int64_t>(rng_.NextBounded(11)) - 5);
    bool stopped = false;
    auto acc = accidents_.find(xway);
    if (acc != accidents_.end() && acc->second.segment == segment) {
      speed = 0;
      stopped = true;
    }
    tuple.ints = {kPositionReport, vid, PackLocation(xway, segment),
                  PackSpeed(speed, /*entering=*/true, stopped)};
    tuple.key = Mix64(static_cast<uint64_t>(PackLocation(xway, segment)));
    emit->Emit(std::move(tuple));
  }
}

// ----------------------------------------------------------------- forwarder

void Forwarder::Process(const core::Tuple& input, core::Collector* out) {
  core::Tuple t = input;
  if (input.ints[0] == kPositionReport) {
    t.key = Mix64(static_cast<uint64_t>(input.ints[2]));  // by segment
    out->EmitTo(0, std::move(t));
  } else if (input.ints[0] == kBalanceQuery) {
    t.key = Mix64(static_cast<uint64_t>(input.ints[1]));  // by vehicle
    out->EmitTo(1, std::move(t));
  }
}

// ----------------------------------------------------------- toll calculator

TollCalculator::SegmentState& TollCalculator::SegmentAt(int64_t loc) {
  const auto [it, inserted] =
      slot_of_.try_emplace(loc, static_cast<uint32_t>(segments_.size()));
  if (inserted) {
    SegmentState& seg = segments_.emplace_back();
    seg.loc = loc;
    seg.key = Mix64(static_cast<uint64_t>(loc));
  }
  return segments_[it->second];
}

void TollCalculator::Process(const core::Tuple& input, core::Collector* out) {
  if (input.ints[0] != kPositionReport) return;
  const int64_t vid = input.ints[1];
  const int64_t loc = input.ints[2];
  const int64_t speed = SpeedOf(input.ints[3]);
  const int64_t minute = input.event_time / kMinute;

  SegmentState& seg = SegmentAt(loc);
  seg.dirty = true;
  auto stats = MinuteLowerBound(seg.minutes, minute);
  if (stats == seg.minutes.end() || stats->minute != minute) {
    stats = seg.minutes.insert(stats, MinuteStats{.minute = minute});
  }
  ++stats->count;
  stats->speed_sum += speed;

  std::vector<int64_t>& stopped = seg.stopped_vehicles;
  const auto vehicle = std::lower_bound(stopped.begin(), stopped.end(), vid);
  const bool listed = vehicle != stopped.end() && *vehicle == vid;
  if (IsStopped(input.ints[3])) {
    if (!listed) stopped.insert(vehicle, vid);
    if (stopped.size() >= 2 && !seg.accident) {
      seg.accident = true;
      core::Tuple alert;
      alert.key = input.key;
      alert.event_time = input.event_time;
      alert.ints = {kAccidentAlert, vid, loc, 0};
      out->EmitTo(0, std::move(alert));
    }
  } else {
    if (listed) stopped.erase(vehicle);
    if (stopped.empty()) seg.accident = false;
  }

  if (IsEntering(input.ints[3])) {
    // LRB toll: previous minute's latest average velocity and count.
    int64_t toll = 0;
    const auto prev = MinuteLowerBound(seg.minutes, minute - 1);
    if (prev != seg.minutes.end() && prev->minute == minute - 1 &&
        !seg.accident) {
      const int64_t lav = prev->count > 0 ? prev->speed_sum / prev->count : 0;
      const auto true_count = static_cast<int64_t>(
          static_cast<double>(prev->count) * count_scale_);
      if (lav < 40 && true_count > 50) {
        const int64_t over = true_count - 50;
        toll = 2 * over * over;
      }
    }
    // Toll notification to the driver (the 5 s latency-bound result).
    core::Tuple note;
    note.key = Mix64(static_cast<uint64_t>(vid));
    note.event_time = input.event_time;
    note.ints = {kTollNotification, vid, toll, loc};
    out->EmitTo(0, std::move(note));
    if (toll > 0) {
      core::Tuple charge;
      charge.key = Mix64(static_cast<uint64_t>(vid));
      charge.event_time = input.event_time;
      charge.ints = {kTollCharge, vid, toll, loc};
      out->EmitTo(1, std::move(charge));
    }
  }

  // GC minutes that can no longer influence tolls.
  seg.minutes.erase(seg.minutes.begin(),
                    MinuteLowerBound(seg.minutes, minute - 5));
}

core::ProcessingState TollCalculator::GetProcessingState() const {
  // Merge the segments first seen since the previous capture into the key
  // order: O(new log new + segments), not a full re-sort.
  const size_t known = key_order_.size();
  if (known < segments_.size()) {
    const auto by_key = [this](uint32_t a, uint32_t b) {
      return segments_[a].key < segments_[b].key;
    };
    key_order_.resize(segments_.size());
    const auto fresh = key_order_.begin() + known;
    std::iota(fresh, key_order_.end(), static_cast<uint32_t>(known));
    std::sort(fresh, key_order_.end(), by_key);
    std::inplace_merge(key_order_.begin(), fresh, key_order_.end(), by_key);
  }
  // Re-encode the segments changed since the previous capture, each once,
  // straight into its cache.
  for (const SegmentState& seg : segments_) {
    if (!seg.dirty) continue;
    serde::Encoder& enc = seg.encoded;
    cached_bytes_ -= enc.size();
    enc.Clear();
    enc.AppendVarintSigned64(seg.loc);
    enc.AppendU8(seg.accident ? 1 : 0);
    enc.AppendVarint64(seg.minutes.size());
    for (const MinuteStats& stats : seg.minutes) {
      enc.AppendVarintSigned64(stats.minute);
      enc.AppendVarintSigned64(stats.count);
      enc.AppendVarintSigned64(stats.speed_sum);
    }
    enc.AppendVarint64(seg.stopped_vehicles.size());
    for (int64_t vid : seg.stopped_vehicles) enc.AppendVarintSigned64(vid);
    cached_bytes_ += enc.size();
    seg.dirty = false;
  }
  // Then every cached entry is copied once, into an arena of exactly their
  // size.
  core::ProcessingState state;
  state.Reserve(segments_.size(), cached_bytes_);
  for (uint32_t slot : key_order_) {
    const SegmentState& seg = segments_[slot];
    state.Add(seg.key, seg.encoded.view());
  }
  return state;
}

void TollCalculator::SetProcessingState(const core::ProcessingState& state) {
  segments_.clear();
  slot_of_.clear();
  cached_bytes_ = 0;
  segments_.reserve(state.size());
  slot_of_.reserve(state.size());
  for (const auto& [key, value] : state.entries()) {
    serde::Decoder dec(value);
    auto loc = dec.ReadVarintSigned64();
    SEEP_CHECK(loc.ok());
    SegmentState& seg = SegmentAt(loc.value());
    SEEP_DCHECK(seg.key == key && seg.minutes.empty());
    // The segment starts dirty; its cache is sized once, for the entry it
    // came from, instead of growing byte by byte at its first encode.
    seg.encoded.Reserve(value.size());
    auto accident = dec.ReadU8();
    SEEP_CHECK(accident.ok());
    seg.accident = accident.value() != 0;
    auto n_minutes = dec.ReadVarint64();
    SEEP_CHECK(n_minutes.ok());
    for (uint64_t i = 0; i < n_minutes.value(); ++i) {
      auto minute = dec.ReadVarintSigned64();
      auto count = dec.ReadVarintSigned64();
      auto speed_sum = dec.ReadVarintSigned64();
      SEEP_CHECK(minute.ok() && count.ok() && speed_sum.ok());
      seg.minutes.push_back({minute.value(), count.value(), speed_sum.value()});
    }
    auto n_stopped = dec.ReadVarint64();
    SEEP_CHECK(n_stopped.ok());
    for (uint64_t i = 0; i < n_stopped.value(); ++i) {
      auto vid = dec.ReadVarintSigned64();
      SEEP_CHECK(vid.ok());
      seg.stopped_vehicles.push_back(vid.value());
    }
  }
  // Entries arrive ascending by key, and so the segments were appended.
  key_order_.resize(segments_.size());
  std::iota(key_order_.begin(), key_order_.end(), 0u);
}

// ----------------------------------------------------------- toll assessment

void TollAssessment::Process(const core::Tuple& input, core::Collector* out) {
  const int64_t vid = input.ints[1];
  if (input.ints[0] == kTollCharge) {
    balances_[vid] += input.ints[2];
    dirty_vehicles_.insert(vid);
  } else if (input.ints[0] == kBalanceQuery) {
    core::Tuple answer;
    answer.key = Mix64(static_cast<uint64_t>(vid));
    answer.event_time = input.event_time;
    auto it = balances_.find(vid);
    answer.ints = {kBalanceAnswer, vid,
                   it == balances_.end() ? 0 : it->second, input.ints[2]};
    out->EmitTo(0, std::move(answer));
  }
}

std::string_view TollAssessment::EncodeBalance(int64_t vid, int64_t balance,
                                               serde::Encoder* enc) {
  enc->Clear();
  enc->AppendVarintSigned64(vid);
  enc->AppendVarintSigned64(balance);
  return enc->view();
}

core::ProcessingState TollAssessment::GetProcessingState() const {
  core::ProcessingState state;
  state.Reserve(balances_.size());
  serde::Encoder enc;
  for (const auto& [vid, balance] : balances_) {
    state.Add(Mix64(static_cast<uint64_t>(vid)),
              EncodeBalance(vid, balance, &enc));
  }
  return state;
}

void TollAssessment::SetProcessingState(const core::ProcessingState& state) {
  balances_.clear();
  dirty_vehicles_.clear();
  for (const auto& [key, value] : state.entries()) {
    serde::Decoder dec(value);
    auto vid = dec.ReadVarintSigned64();
    auto balance = dec.ReadVarintSigned64();
    SEEP_CHECK(vid.ok() && balance.ok());
    balances_[vid.value()] = balance.value();
  }
}

core::StateDelta TollAssessment::TakeProcessingStateDelta() {
  core::StateDelta delta;
  delta.updated.Reserve(dirty_vehicles_.size());
  serde::Encoder enc;
  for (int64_t vid : dirty_vehicles_) {
    auto it = balances_.find(vid);
    if (it != balances_.end()) {
      delta.updated.Add(Mix64(static_cast<uint64_t>(vid)),
                        EncodeBalance(vid, it->second, &enc));
    }
  }
  dirty_vehicles_.clear();
  return delta;
}

// ------------------------------------------------------------ toll collector

void TollCollector::Process(const core::Tuple& input, core::Collector* out) {
  core::Tuple t = input;
  out->EmitTo(0, std::move(t));
}

// ----------------------------------------------------------- balance account

void BalanceAccount::Process(const core::Tuple& input, core::Collector* out) {
  if (input.ints[0] != kBalanceAnswer) return;
  auto& [qid, balance] = latest_[input.ints[1]];
  if (input.ints[3] >= qid) {
    qid = input.ints[3];
    balance = input.ints[2];
  }
  core::Tuple t = input;
  out->EmitTo(0, std::move(t));
}

core::ProcessingState BalanceAccount::GetProcessingState() const {
  core::ProcessingState state;
  state.Reserve(latest_.size());
  serde::Encoder enc;
  for (const auto& [vid, entry] : latest_) {
    enc.Clear();
    enc.AppendVarintSigned64(vid);
    enc.AppendVarintSigned64(entry.first);
    enc.AppendVarintSigned64(entry.second);
    state.Add(Mix64(static_cast<uint64_t>(vid)), enc.view());
  }
  return state;
}

void BalanceAccount::SetProcessingState(const core::ProcessingState& state) {
  latest_.clear();
  for (const auto& [key, value] : state.entries()) {
    serde::Decoder dec(value);
    auto vid = dec.ReadVarintSigned64();
    auto qid = dec.ReadVarintSigned64();
    auto balance = dec.ReadVarintSigned64();
    SEEP_CHECK(vid.ok() && qid.ok() && balance.ok());
    latest_[vid.value()] = {qid.value(), balance.value()};
  }
}

// ---------------------------------------------------------------------- sink

void LrbSink::Consume(const core::Tuple& tuple, SimTime now) {
  switch (tuple.ints[0]) {
    case kTollNotification:
      ++results_->toll_notifications;
      results_->total_tolls_charged += tuple.ints[2];
      break;
    case kAccidentAlert:
      ++results_->accident_alerts;
      break;
    case kBalanceAnswer:
      ++results_->balance_answers;
      break;
    default:
      break;
  }
}

// --------------------------------------------------------------------- query

LrbQuery BuildLrbQuery(const LrbConfig& config) {
  LrbQuery q;
  q.results = std::make_shared<LrbSink::Results>();

  q.feeder = q.graph.AddSource(
      "data-feeder",
      [config](uint32_t index, uint32_t count) {
        return std::make_unique<LrbSource>(config, index, count);
      },
      config.ScaledCost(config.source_cost_us), config.num_sources);
  q.forwarder = q.graph.AddOperator(
      "forwarder",
      [config]() {
        return std::make_unique<Forwarder>(
            config.ScaledCost(config.forwarder_cost_us));
      },
      /*stateful=*/false);
  q.toll_calculator = q.graph.AddOperator(
      "toll-calculator",
      [config]() {
        return std::make_unique<TollCalculator>(
            config.ScaledCost(config.toll_calc_cost_us), config.load_scale);
      },
      /*stateful=*/true);
  q.toll_assessment = q.graph.AddOperator(
      "toll-assessment",
      [config]() {
        return std::make_unique<TollAssessment>(
            config.ScaledCost(config.assessment_cost_us));
      },
      /*stateful=*/true);
  q.toll_collector = q.graph.AddOperator(
      "toll-collector",
      [config]() {
        return std::make_unique<TollCollector>(
            config.ScaledCost(config.collector_cost_us));
      },
      /*stateful=*/false);
  q.balance_account = q.graph.AddOperator(
      "balance-account",
      [config]() {
        return std::make_unique<BalanceAccount>(
            config.ScaledCost(config.balance_cost_us));
      },
      /*stateful=*/true);
  q.sink = q.graph.AddSink(
      "sink",
      [results = q.results]() { return std::make_unique<LrbSink>(results); },
      config.ScaledCost(config.sink_cost_us));

  SEEP_CHECK(q.graph.Connect(q.feeder, q.forwarder).ok());
  SEEP_CHECK(q.graph.Connect(q.forwarder, q.toll_calculator).ok());  // port 0
  SEEP_CHECK(q.graph.Connect(q.forwarder, q.toll_assessment).ok());  // port 1
  SEEP_CHECK(q.graph.Connect(q.toll_calculator, q.toll_collector).ok());
  SEEP_CHECK(q.graph.Connect(q.toll_calculator, q.toll_assessment).ok());
  SEEP_CHECK(q.graph.Connect(q.toll_assessment, q.balance_account).ok());
  SEEP_CHECK(q.graph.Connect(q.toll_collector, q.sink).ok());
  SEEP_CHECK(q.graph.Connect(q.balance_account, q.sink).ok());
  return q;
}

}  // namespace seep::workloads::lrb
