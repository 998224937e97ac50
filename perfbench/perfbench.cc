// Benchmark binary. Runs one workload scenario of the SEEP runtime again and
// again for a wall-clock budget, checks every repetition's sink output
// against a reference computed from the source tuples of its input, and
// prints one JSON object of metrics as the last line of stdout. run.py
// builds and invokes it; README.md describes the workloads and metrics.
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s>
//                         --trace <0|1> --data-dir <dir>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <memory_resource>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <malloc.h>
#include <sched.h>
#include <time.h>

#include "bench/bench_common.h"
#include "common/hash.h"
#include "runtime/operator_instance.h"
#include "runtime/tcp_transport.h"
#include "sps/sps.h"
#include "store/checkpoint_log.h"
#include "workloads/lrb/lrb.h"
#include "workloads/wordcount/wordcount.h"

namespace seep::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// CPU time consumed so far by `clock` (a process or thread CPU clock), ms.
double CpuMs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Heap bytes in use by the process (all malloc arenas plus mmap-ed
/// blocks), MiB. Unlike the resident set, it drops when memory is freed.
double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1 << 20);
}

// --------------------------------------------------------------- input capture

using TupleLog = std::vector<core::Tuple>;

/// What one repetition's sources emitted: a running fingerprint of every
/// tuple, plus the tuples themselves when `tuples` is set. Timed
/// repetitions only fingerprint, so no copying falls inside their timings.
struct SourceRecord {
  void Add(const core::Tuple& t) {
    uint64_t h = HashCombine(static_cast<uint64_t>(t.event_time), t.key);
    for (int64_t v : t.ints) h = HashCombine(h, static_cast<uint64_t>(v));
    fingerprint = HashCombine(fingerprint, HashCombine(h, HashBytes(t.text)));
    if (tuples != nullptr) tuples->push_back(t);
  }

  uint64_t fingerprint = 0;
  TupleLog* tuples = nullptr;
};

class RecordingCollector final : public core::Collector {
 public:
  RecordingCollector(core::Collector* next, SourceRecord* record)
      : next_(next), record_(record) {}
  void EmitTo(int port, core::Tuple tuple) override {
    record_->Add(tuple);
    next_->EmitTo(port, std::move(tuple));
  }

 private:
  core::Collector* next_;
  SourceRecord* record_;
};

/// Wraps a workload's source: records every tuple it emits, and goes quiet
/// from `stop_at` on so that the query can drain to a final, checkable
/// result.
class RecordedSource final : public core::SourceGenerator {
 public:
  RecordedSource(std::unique_ptr<core::SourceGenerator> inner, SimTime stop_at,
                 std::shared_ptr<SourceRecord> record)
      : inner_(std::move(inner)), stop_at_(stop_at),
        record_(std::move(record)) {}

  void GenerateBatch(SimTime now, SimTime dt, core::Collector* emit) override {
    if (now >= stop_at_) return;
    RecordingCollector recorder(emit, record_.get());
    inner_->GenerateBatch(now, dt, &recorder);
  }
  double TargetRate(SimTime now) const override {
    return now >= stop_at_ ? 0 : inner_->TargetRate(now);
  }

 private:
  std::unique_ptr<core::SourceGenerator> inner_;
  SimTime stop_at_;
  std::shared_ptr<SourceRecord> record_;
};

/// `graph` with every source wrapped in a RecordedSource. Vertex ids and the
/// per-vertex edge (port) order are preserved.
core::QueryGraph WithRecordedSources(
    const core::QueryGraph& graph, SimTime stop_at,
    const std::shared_ptr<SourceRecord>& record) {
  core::QueryGraph out;
  for (const core::OperatorSpec& spec : graph.operators()) {
    switch (spec.kind) {
      case core::VertexKind::kSource:
        out.AddSource(
            spec.name,
            [inner = spec.source_factory, stop_at, record](uint32_t i,
                                                           uint32_t n) {
              return std::make_unique<RecordedSource>(inner(i, n), stop_at,
                                                      record);
            },
            spec.endpoint_cost_us, spec.source_parallelism);
        break;
      case core::VertexKind::kOperator:
        out.AddOperator(spec.name, spec.factory, spec.stateful, spec.scalable);
        break;
      case core::VertexKind::kSink:
        out.AddSink(spec.name, spec.sink_factory, spec.endpoint_cost_us);
        break;
    }
  }
  for (const core::OperatorSpec& spec : graph.operators()) {
    for (OperatorId to : graph.Downstream(spec.id)) {
      SEEP_CHECK(out.Connect(spec.id, to).ok());
    }
  }
  return out;
}

// ------------------------------------------------------------------ workloads

/// One workload: how to build and configure a repetition, what to do to it
/// while it runs, and how to judge its output. A run generates a few
/// inputs; the workload learns each input's reference result once, from
/// the tuples its sources emitted, and checks every repetition against it.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds a fresh query over the input generated from `seed`; the
  /// workload keeps the handles that Arm and Check need.
  virtual core::QueryGraph BuildQuery(uint64_t seed) = 0;
  virtual sps::SpsConfig Config(const std::string& store_dir) const = 0;
  /// Schedules the workload's failure, if any, before the run starts.
  virtual void Arm(sps::Sps&) {}
  /// Sources stop emitting at stop_s; the run ends at horizon_s.
  virtual double stop_s() const = 0;
  virtual double horizon_s() const = 0;
  /// Computes the reference result of input `input` from its tuples.
  virtual void Learn(int input, const TupleLog& tuples) = 0;
  /// Empty when the last built query's output matches the reference of
  /// input `input`.
  virtual std::string Check(int input, sps::Sps& sps) = 0;
};

/// Windowed word frequency as in the paper's recovery experiments
/// (bench_fig11_recovery_modes: R+SM, c = 5 s, 30 s windows, 1000 words,
/// 35 s buffer window, the counter failing at the worst case for c, 130 s
/// runs). The check is an exact per-(window, word) comparison for every
/// window that closed 40 s before the horizon, the failure's window
/// included.
class WordCountWorkload : public Workload {
 public:
  explicit WordCountWorkload(double rate_tuples_per_sec) {
    wc_.rate_tuples_per_sec = rate_tuples_per_sec;
  }

  core::QueryGraph BuildQuery(uint64_t seed) override {
    wc_.seed = seed;
    auto query = workloads::wordcount::BuildWordCountQuery(wc_);
    counter_ = query.counter;
    results_ = query.results;
    return std::move(query.graph);
  }
  double stop_s() const override { return kHorizonS; }
  double horizon_s() const override { return kHorizonS; }

  void Learn(int input, const TupleLog& tuples) override {
    Counts& counts = expected_[input];
    counts.clear();
    for (const core::Tuple& t : tuples) {
      const int64_t window = t.event_time / wc_.window;
      if (window > kMaxStableWindow) continue;
      size_t start = 0;
      while (start < t.text.size()) {
        size_t end = t.text.find(' ', start);
        if (end == std::string::npos) end = t.text.size();
        if (end > start) ++counts[{window, t.text.substr(start, end - start)}];
        start = end + 1;
      }
    }
  }

  std::string Check(int input, sps::Sps& sps) override {
    const Counts& expected = expected_.at(input);
    if (expected.empty()) return "reference holds no stable window";
    Counts actual;
    for (const auto& [cell, count] : results_->counts) {
      if (cell.first <= kMaxStableWindow) actual[cell] = count;
    }
    if (actual != expected) {
      size_t wrong = 0;
      for (const auto& [cell, count] : expected) {
        auto it = actual.find(cell);
        if (it == actual.end() || it->second != count) ++wrong;
      }
      return "word counts differ from the reference in " +
             std::to_string(wrong) + " of " +
             std::to_string(expected.size()) + " cells";
    }
    size_t completed = 0;
    for (const auto& r : sps.metrics().recoveries) {
      if (r.caught_up_at != 0) ++completed;
    }
    if (completed != ExpectedRecoveries()) {
      return std::to_string(completed) + " recoveries completed, expected " +
             std::to_string(ExpectedRecoveries());
    }
    return "";
  }

 protected:
  /// (window id, word) -> count.
  using Counts = std::map<std::pair<int64_t, std::string>, int64_t>;

  static constexpr double kHorizonS = 130;
  static constexpr int64_t kMaxStableWindow = 2;  // [60, 90) s

  /// The fig11 settings shared by both word-count workloads.
  static sps::SpsConfig BaseConfig() {
    sps::SpsConfig config;
    config.cluster.checkpoint_interval = SecondsToSim(5);
    config.cluster.buffer_window = SecondsToSim(35);
    config.cluster.pool.target_size = 3;
    config.cluster.audit_level = 0;
    config.scaling.enabled = false;
    return config;
  }
  static double FailAtS() { return bench::WorstCaseFailTime(5); }

  virtual size_t ExpectedRecoveries() const = 0;

  workloads::wordcount::WordCountConfig wc_;
  OperatorId counter_ = 0;
  std::shared_ptr<workloads::wordcount::WordFrequencySink::Results> results_;
  std::map<int, Counts> expected_;
};

/// Fig. 11's R+SM row at 100 tuples/s over real loopback TCP: the counter's
/// VM is hard-killed, its sockets close mid-stream, and it recovers from
/// the in-memory upstream backup.
class TcpFailover final : public WordCountWorkload {
 public:
  TcpFailover() : WordCountWorkload(100) {}

  sps::SpsConfig Config(const std::string&) const override {
    sps::SpsConfig config = BaseConfig();
    config.cluster.transport = runtime::TransportKind::kTcp;
    return config;
  }
  void Arm(sps::Sps& sps) override { sps.InjectFailure(counter_, FailAtS()); }

 private:
  size_t ExpectedRecoveries() const override { return 1; }
};

/// Fig. 11's R+SM/disk column at 100 tuples/s: every backup is kept only
/// in the on-disk checkpoint log. The counter's VM and the VM holding its
/// backup die in the same instant (the correlated kill that only the
/// durable log survives), so both recover from disk.
class DurableRecovery final : public WordCountWorkload {
 public:
  DurableRecovery() : WordCountWorkload(100) {}

  sps::SpsConfig Config(const std::string& store_dir) const override {
    sps::SpsConfig config = BaseConfig();
    config.cluster.backup_durability = runtime::BackupDurability::kDisk;
    config.cluster.store.directory = store_dir;
    return config;
  }

  void Arm(sps::Sps& sps) override {
    runtime::Cluster* cluster = &sps.cluster();
    const OperatorId counter = counter_;
    cluster->simulation()->ScheduleAt(
        SecondsToSim(FailAtS()), [cluster, counter]() {
          const auto live = cluster->LiveInstancesOf(counter);
          SEEP_CHECK(!live.empty());
          const InstanceId owner = live.front();
          const auto* holder =
              cluster->GetInstance(cluster->backups()->HolderOf(owner));
          SEEP_CHECK(holder != nullptr);
          const VmId holder_vm = holder->vm();
          SEEP_CHECK(
              cluster->membership()->KillVm(cluster->GetInstance(owner)->vm())
                  .ok());
          SEEP_CHECK(cluster->membership()->KillVm(holder_vm).ok());
        });
  }

 private:
  size_t ExpectedRecoveries() const override { return 2; }
};

/// Linear Road with dynamic scale out, in the paper configuration of
/// bench_fig09_threshold and bench_ablation_vmpool (PaperLrb: L = 64, a
/// 2000 s ramp, then a plateau; PaperControl: r = 5 s, k = 2, delta = 70 %,
/// c = 5 s). The load scale is ten times theirs: rates thinned and every
/// per-tuple cost raised by the same factor, so the VM demand, the order of
/// partitioning and the scale-out trajectory stay those of the paper while
/// a repetition simulates a tenth of the tuples. The source stops at the
/// end of the ramp and the query drains, so every result is final.
class LrbScaleOut final : public Workload {
 public:
  LrbScaleOut()
      : lrb_(bench::PaperLrb(kXways, kStopS, kLoadScale, kStopS)) {}

  core::QueryGraph BuildQuery(uint64_t seed) override {
    lrb_.seed = seed;
    auto query = workloads::lrb::BuildLrbQuery(lrb_);
    results_ = query.results;
    return std::move(query.graph);
  }

  sps::SpsConfig Config(const std::string&) const override {
    sps::SpsConfig config = bench::PaperControl();
    config.cluster.audit_level = 0;
    return config;
  }
  double stop_s() const override { return kStopS; }
  double horizon_s() const override { return kStopS + kDrainS; }

  void Learn(int input, const TupleLog& tuples) override {
    expected_[input] = Reference(tuples);
  }

  std::string Check(int input, sps::Sps& sps) override {
    const Results& want = expected_.at(input);
    const Results& got = *results_;
    if (got.toll_notifications != want.toll_notifications ||
        got.accident_alerts != want.accident_alerts ||
        got.balance_answers != want.balance_answers ||
        got.total_tolls_charged != want.total_tolls_charged) {
      return "LRB results differ from the reference: notifications " +
             std::to_string(got.toll_notifications) + "/" +
             std::to_string(want.toll_notifications) + ", alerts " +
             std::to_string(got.accident_alerts) + "/" +
             std::to_string(want.accident_alerts) + ", answers " +
             std::to_string(got.balance_answers) + "/" +
             std::to_string(want.balance_answers) + ", tolls " +
             std::to_string(got.total_tolls_charged) + "/" +
             std::to_string(want.total_tolls_charged);
    }
    if (want.toll_notifications == 0 || want.total_tolls_charged == 0) {
      return "reference produced no tolls";
    }
    if (sps.metrics().scale_outs.empty()) return "no scale out happened";
    return "";
  }

 private:
  using Results = workloads::lrb::LrbSink::Results;

  static constexpr uint32_t kXways = 64;
  static constexpr double kLoadScale = 1280;
  static constexpr double kStopS = 2000;
  static constexpr double kDrainS = 60;

  /// The query executed one tuple at a time, depth first, with one instance
  /// of every operator: per-key order matches any partitioned execution,
  /// and every LRB result total is a per-key aggregate.
  Results Reference(const TupleLog& input) const {
    auto query = workloads::lrb::BuildLrbQuery(lrb_);
    auto results = std::make_shared<Results>();
    workloads::lrb::LrbSink sink(results);
    const core::QueryGraph& graph = query.graph;
    using OpMap = std::map<OperatorId, std::unique_ptr<core::Operator>>;
    OpMap ops;
    for (const core::OperatorSpec& spec : graph.operators()) {
      if (spec.kind == core::VertexKind::kOperator) {
        ops[spec.id] = spec.factory();
      }
    }

    struct Dispatch final : core::Collector {
      Dispatch(const core::QueryGraph* graph, OpMap* ops,
               workloads::lrb::LrbSink* sink, OperatorId from)
          : graph(graph), ops(ops), sink(sink), from(from) {}
      void EmitTo(int port, core::Tuple tuple) override {
        const OperatorId to = graph->Downstream(from).at(port);
        if (graph->Get(to)->kind == core::VertexKind::kSink) {
          sink->Consume(tuple, tuple.event_time);
          return;
        }
        Dispatch next(graph, ops, sink, to);
        ops->at(to)->Process(tuple, &next);
      }
      const core::QueryGraph* graph;
      OpMap* ops;
      workloads::lrb::LrbSink* sink;
      OperatorId from;
    };
    Dispatch from_source(&graph, &ops, &sink, query.feeder);
    for (const core::Tuple& t : input) from_source.EmitTo(0, t);
    return *results;
  }

  workloads::lrb::LrbConfig lrb_;
  std::shared_ptr<Results> results_;
  std::map<int, Results> expected_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "lrb_scaleout") return std::make_unique<LrbScaleOut>();
  if (name == "tcp_failover") return std::make_unique<TcpFailover>();
  if (name == "durable_recovery") return std::make_unique<DurableRecovery>();
  return nullptr;
}

// ------------------------------------------------------------------- one rep

/// Wall-clock readings taken at fixed simulated-time steps: the run advances
/// the simulation in kGridStep increments, so the wall time spent on any
/// simulated interval can be read off by interpolation.
class WallGrid {
 public:
  void Add(SimTime sim, Clock::time_point wall) {
    points_.push_back({sim, wall});
  }

  /// Wall milliseconds since the first point at simulated time `t`.
  double WallMsAt(SimTime t) const {
    auto it = std::lower_bound(
        points_.begin(), points_.end(), t,
        [](const Point& p, SimTime v) { return p.sim < v; });
    if (it == points_.begin()) return 0;
    if (it == points_.end()) {
      return Ms(points_.front().wall, points_.back().wall);
    }
    const Point& hi = *it;
    const Point& lo = *(it - 1);
    const double frac = static_cast<double>(t - lo.sim) /
                        static_cast<double>(hi.sim - lo.sim);
    const double lo_ms = Ms(points_.front().wall, lo.wall);
    return lo_ms + frac * Ms(lo.wall, hi.wall);
  }

  void Reserve(size_t n) { points_.reserve(n); }

 private:
  struct Point {
    SimTime sim;
    Clock::time_point wall;
  };
  std::vector<Point> points_;
};

constexpr SimTime kGridStep = MillisToSim(10);
constexpr int kInputsPerRun = 4;

/// The workload's reconfigurations as simulated intervals, merged where
/// they overlap: committed plans, plus failure-to-caught-up for recoveries.
std::vector<std::pair<SimTime, SimTime>> ReconfigIntervals(
    const runtime::MetricsRegistry& m) {
  std::vector<std::pair<SimTime, SimTime>> spans;
  for (const auto& plan : m.reconfig_plans) {
    if (!plan.aborted) spans.emplace_back(plan.started, plan.ended);
  }
  for (const auto& r : m.recoveries) {
    if (r.caught_up_at != 0) spans.emplace_back(r.failed_at, r.caught_up_at);
  }
  std::sort(spans.begin(), spans.end());
  std::vector<std::pair<SimTime, SimTime>> merged;
  for (const auto& s : spans) {
    if (!merged.empty() && s.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, s.second);
    } else {
      merged.push_back(s);
    }
  }
  return merged;
}

struct Span {
  std::string name;
  int rep;
  double start_ms;  // since the benchmark started
  double dur_ms;
};

/// One repetition's measurements by metric name: wall-clock readings taken
/// by the benchmark, and the program's own counters.
struct RepResult {
  int input = 0;  // which of the run's kInputsPerRun inputs it ran
  std::map<std::string, double> values;
  std::string error;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir = ".";
};

class Bench {
 public:
  Bench(Options options, std::unique_ptr<Workload> workload)
      : opt_(std::move(options)), workload_(std::move(workload)),
        epoch_(Clock::now()) {}

  /// Runs repetition `rep` on input rep % kInputsPerRun. With `learn`, the
  /// repetition records its source tuples and the workload computes that
  /// input's reference from them; otherwise the sources must emit exactly
  /// the tuples recorded then.
  RepResult RunRep(int rep, bool learn) {
    RepResult out;
    const std::string store_dir =
        opt_.data_dir + "/store-" + std::to_string(rep);
    std::error_code ec;
    std::filesystem::remove_all(store_dir, ec);

    out.input = rep % kInputsPerRun;
    const uint64_t input_seed = HashCombine(opt_.seed, out.input);
    TupleLog tuples;
    auto record = std::make_shared<SourceRecord>();
    if (learn) record->tuples = &tuples;
    const double heap0 = HeapInUseMb();
    const auto t0 = Clock::now();
    auto sps = std::make_unique<sps::Sps>(
        WithRecordedSources(workload_->BuildQuery(input_seed),
                            SecondsToSim(workload_->stop_s()), record),
        workload_->Config(store_dir));
    const Status deployed = sps->Deploy();
    const auto t1 = Clock::now();
    out.values["setup_s"] = Ms(t0, t1) / 1e3;
    Trace("setup", rep, t0, t1);
    if (!deployed.ok()) {
      out.error = "deploy failed: " + deployed.ToString();
      return out;
    }
    workload_->Arm(*sps);

    sim::Simulation* sim = sps->cluster().simulation();
    const SimTime horizon = SecondsToSim(workload_->horizon_s());
    WallGrid grid;
    grid.Reserve(static_cast<size_t>(horizon / kGridStep) + 2);
    grid.Add(sim->Now(), Clock::now());
    const double cpu0 = CpuMs(CLOCK_PROCESS_CPUTIME_ID);
    for (SimTime t = sim->Now() + kGridStep; t <= horizon; t += kGridStep) {
      sim->RunUntil(t);
      grid.Add(t, Clock::now());
    }
    const auto t2 = Clock::now();
    out.values["run_cpu_ms"] = CpuMs(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    const double run_ms = Ms(t1, t2);
    out.values["run_ms"] = run_ms;
    Trace("run", rep, t1, t2);

    const runtime::MetricsRegistry& m = sps->metrics();
    double reconfig_ms = 0;
    for (const auto& [from, to] : ReconfigIntervals(m)) {
      const double a = grid.WallMsAt(from);
      const double b = grid.WallMsAt(to);
      reconfig_ms += b - a;
      if (opt_.trace) {
        spans_.push_back({"reconfig", rep, Ms(epoch_, t1) + a, b - a});
      }
    }
    out.values["reconfig_ms"] = reconfig_ms;
    out.values["steady_ms"] = run_ms - reconfig_ms;
    out.values["heap_mb"] = HeapInUseMb() - heap0;
    for (const auto& plan : m.reconfig_plans) {
      if (plan.aborted) {
        out.error = std::string(plan.label) + " plan aborted: " + plan.status;
      }
    }
    if (reconfig_ms <= 0 && out.error.empty()) {
      out.error = "no reconfiguration completed";
    }
    if (opt_.trace) CollectCounters(*sps, &out);
    if (learn) {
      workload_->Learn(out.input, tuples);
      fingerprints_[out.input] = record->fingerprint;
    } else if (record->fingerprint != fingerprints_.at(out.input)) {
      out.error = "the sources emitted other tuples than on input " +
                  std::to_string(out.input) + "'s first repetition";
    }
    if (out.error.empty()) out.error = workload_->Check(out.input, *sps);

    const auto t3 = Clock::now();
    sps.reset();
    const auto t4 = Clock::now();
    Trace("teardown", rep, t3, t4);
    out.values["teardown_ms"] = Ms(t3, t4);
    if (opt_.trace) {
      out.values["store_reopen_ms"] = 0;
      if (std::filesystem::exists(store_dir)) ReopenStore(store_dir, rep, &out);
    }
    std::filesystem::remove_all(store_dir, ec);
    return out;
  }

  void WriteTrace() const {
    if (!opt_.trace) return;
    const std::string path = opt_.data_dir + "/trace-" + opt_.workload + "-" +
                             std::to_string(opt_.seed) + ".json";
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    // Chrome trace-event format; opens in Perfetto or chrome://tracing.
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}%s\n",
                   s.name.c_str(), s.rep, s.start_ms * 1e3, s.dur_ms * 1e3,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }

 private:
  void Trace(const char* name, int rep, Clock::time_point a,
             Clock::time_point b) {
    if (opt_.trace) spans_.push_back({name, rep, Ms(epoch_, a), Ms(a, b)});
  }

  void CollectCounters(sps::Sps& sps, RepResult* out) {
    runtime::Cluster& cluster = sps.cluster();
    const runtime::MetricsRegistry& m = sps.metrics();
    auto& c = out->values;
    c["sim_events"] =
        static_cast<double>(cluster.simulation()->executed_events());
    c["batches_processed"] = static_cast<double>(m.tuples_processed);
    c["checkpoints"] = static_cast<double>(m.checkpoints_taken);
    c["checkpoint_kb"] = static_cast<double>(m.checkpoint_bytes) / 1024;
    c["tuples_replayed"] = static_cast<double>(m.tuples_replayed);
    c["duplicates_dropped"] = static_cast<double>(m.duplicates_dropped);
    c["plans_committed"] = static_cast<double>(std::count_if(
        m.reconfig_plans.begin(), m.reconfig_plans.end(),
        [](const runtime::ReconfigPlanEvent& p) { return !p.aborted; }));

    c["tcp_messages"] = c["tcp_frames_dropped"] = c["tcp_disconnects"] = 0;
    if (auto* tcp = dynamic_cast<runtime::TcpTransport*>(cluster.transport())) {
      c["tcp_messages"] = static_cast<double>(tcp->messages_delivered());
      c["tcp_frames_dropped"] = static_cast<double>(tcp->frames_dropped());
      c["tcp_disconnects"] = static_cast<double>(tcp->disconnects_observed());
    }

    c["store_appends"] = c["store_append_kb"] = c["store_fsyncs"] = 0;
    c["store_fsync_ms"] = c["store_reads"] = 0;
    if (const store::CheckpointLog* log = cluster.durable_log()) {
      const store::StoreMetrics& s = log->metrics();
      c["store_appends"] = static_cast<double>(s.appends.load());
      c["store_append_kb"] = static_cast<double>(s.append_bytes.load()) / 1024;
      c["store_fsyncs"] = static_cast<double>(s.fsyncs.load());
      c["store_fsync_ms"] =
          static_cast<double>(s.fsync_nanos_total.load()) / 1e6;
      c["store_reads"] = static_cast<double>(s.reads.load());
    }
  }

  /// Reopens the log the run left behind: the store's startup recovery
  /// scan over every segment, timed from outside.
  void ReopenStore(const std::string& dir, int rep, RepResult* out) {
    store::CheckpointLogConfig config;
    config.directory = dir;
    config.background_compaction = false;
    const auto a = Clock::now();
    auto log = store::CheckpointLog::Open(config);
    const auto b = Clock::now();
    Trace("store_reopen", rep, a, b);
    if (!log.ok()) {
      if (out->error.empty()) {
        out->error = "store reopen: " + log.status().ToString();
      }
      return;
    }
    out->values["store_reopen_ms"] = Ms(a, b);
  }

  Options opt_;
  std::unique_ptr<Workload> workload_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::map<int, uint64_t> fingerprints_;  // input -> source fingerprint
};

/// Linearly interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double k = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(k);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (k - static_cast<double>(lo));
}

// ---------------------------------------------------------------- speed probe

/// On a shared machine the host's speed moves by 10-50 % within seconds
/// and between minutes, as neighbouring tenants come and go: more than the
/// differences the benchmark must resolve. CPU time moves with wall time,
/// so the program runs slower rather than waits longer. A fixed kernel
/// that shares no code with the program is therefore timed once before the
/// first timed repetition and after each one, and every timing a
/// repetition takes is scaled by kReferenceProbeMs over the mean of the
/// probes on either side of it (wall-clock timings by the probe's wall
/// time, CPU timings by its CPU time). Reported times are thus
/// milliseconds on a machine where the probe takes kReferenceProbeMs,
/// about its median on the 4-core host the benchmark was written on; the
/// traced run reports the unscaled run time and the probe's own median.
constexpr double kReferenceProbeMs = 15.0;

/// Ordered-map inserts over a working set of several MiB, the runtime's
/// dominant access pattern. The map nodes live in an arena allocated once,
/// so probing leaves the program's heap as it found it.
class SpeedProbe {
 public:
  struct Reading {
    double wall_ms = 0;
    double cpu_ms = 0;  // CPU time of the calling thread
  };

  SpeedProbe() : arena_(new std::byte[kArenaBytes]) {}

  Reading Measure() {
    const auto wall0 = Clock::now();
    const double cpu0 = CpuMs(CLOCK_THREAD_CPUTIME_ID);
    {
      std::pmr::monotonic_buffer_resource pool(arena_.get(), kArenaBytes);
      std::pmr::map<uint64_t, uint64_t> cells(&pool);
      uint64_t x = 1;
      for (uint64_t i = 0; i < 60000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        cells[x % 400000] += i;
      }
      checksum_ += cells.size() + cells.begin()->second;
    }
    return {Ms(wall0, Clock::now()), CpuMs(CLOCK_THREAD_CPUTIME_ID) - cpu0};
  }
  /// Printed, so the kernel cannot be optimised away.
  uint64_t checksum() const { return checksum_; }

 private:
  // Holds the pass's at most 60000 map nodes of 48 bytes.
  static constexpr size_t kArenaBytes = 4u << 20;
  std::unique_ptr<std::byte[]> arena_;
  uint64_t checksum_ = 0;
};

/// Wall-clock timings a repetition records, all scaled by the probe's wall
/// time; run_cpu_ms is scaled by its CPU time.
constexpr const char* kWallTimings[] = {"run_ms", "setup_s", "steady_ms",
                                        "reconfig_ms", "teardown_ms",
                                        "store_reopen_ms"};

void ScaleTimings(SpeedProbe::Reading before, SpeedProbe::Reading after,
                  RepResult* r) {
  auto& v = r->values;
  v["unscaled_run_ms"] = v.at("run_ms");
  v["probe_ms"] = after.wall_ms;
  const double wall = 2 * kReferenceProbeMs / (before.wall_ms + after.wall_ms);
  for (const char* name : kWallTimings) {
    if (auto it = v.find(name); it != v.end()) it->second *= wall;
  }
  v.at("run_cpu_ms") *= 2 * kReferenceProbeMs / (before.cpu_ms + after.cpu_ms);
}

/// Confines the process, and every thread it starts later, to the CPU it
/// is running on. The TCP workload hands each message between the
/// simulation thread and the event-loop threads; across virtual CPUs the
/// cost of those handoffs follows where the hypervisor places the CPUs,
/// and moved by 30 % for minutes at a time while the probe, which runs on
/// one thread, stayed level. On one CPU the probe and the program meet the
/// same conditions.
void PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::perror("perfbench: sched_setaffinity");
  }
}

/// A run makes at least this many timed repetitions, so that kTailQuantile
/// has at least ten of them beyond it.
constexpr size_t kMinReps = 40;
constexpr double kTailQuantile = 0.75;

/// How a metric is reduced over a run's timed repetitions.
enum class Stat {
  kMedian,     // median per input, averaged over the run's inputs
  kTail,       // kTailQuantile of `source` over all repetitions
  kEventRate,  // median sim_events over median run_ms
};

struct MetricSpec {
  const char* name;
  const char* unit;
  Stat stat;
  const char* source = nullptr;  // the recorded value, when not `name`
};

constexpr MetricSpec kEndToEnd[] = {
    {"run_ms", "ms", Stat::kMedian},
    {"run_ms_p75", "ms", Stat::kTail, "run_ms"},
    {"run_cpu_ms", "ms", Stat::kMedian},
    {"setup_s", "s", Stat::kMedian},
};

constexpr MetricSpec kPerLayer[] = {
    {"sim_events", "count", Stat::kMedian},
    {"sim_events_per_s", "1/s", Stat::kEventRate},
    {"batches_processed", "count", Stat::kMedian},
    {"checkpoints", "count", Stat::kMedian},
    {"checkpoint_kb", "KiB", Stat::kMedian},
    {"tuples_replayed", "count", Stat::kMedian},
    {"duplicates_dropped", "count", Stat::kMedian},
    {"plans_committed", "count", Stat::kMedian},
    {"tcp_messages", "count", Stat::kMedian},
    {"tcp_frames_dropped", "count", Stat::kMedian},
    {"tcp_disconnects", "count", Stat::kMedian},
    {"store_appends", "count", Stat::kMedian},
    {"store_append_kb", "KiB", Stat::kMedian},
    {"store_fsyncs", "count", Stat::kMedian},
    {"store_fsync_ms", "ms", Stat::kMedian},
    {"store_reads", "count", Stat::kMedian},
    {"store_reopen_ms", "ms", Stat::kMedian},
    {"steady_ms", "ms", Stat::kMedian},
    {"reconfig_ms", "ms", Stat::kMedian},
    {"teardown_ms", "ms", Stat::kMedian},
    {"heap_mb", "MiB", Stat::kMedian},
    {"unscaled_run_ms", "ms", Stat::kMedian},
    {"probe_ms", "ms", Stat::kMedian},
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--data-dir") {
      opt->data_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt->workload.empty() && opt->seconds > 0;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --data-dir <dir>\n");
    return 2;
  }
  auto workload = MakeWorkload(opt.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(opt.data_dir);
  PinToCurrentCpu();
  Bench bench(opt, std::move(workload));

  uint64_t failed = 0;
  auto run_rep = [&](int rep, bool learn) {
    RepResult r = bench.RunRep(rep, learn);
    if (!r.error.empty()) {
      ++failed;
      std::fprintf(stderr, "rep %d: %s\n", rep, r.error.c_str());
    }
    return r;
  };

  // One untimed repetition per input first: it records the input and its
  // reference, and warms the allocator and page cache. Its output is
  // checked too.
  for (int rep = 0; rep < kInputsPerRun; ++rep) run_rep(rep, true);
  SpeedProbe probe;
  SpeedProbe::Reading before = probe.Measure();
  std::vector<RepResult> reps;
  const auto start = Clock::now();
  while (reps.size() < kMinReps ||
         Ms(start, Clock::now()) < opt.seconds * 1e3) {
    RepResult r =
        run_rep(kInputsPerRun + static_cast<int>(reps.size()), false);
    const SpeedProbe::Reading after = probe.Measure();
    if (r.values.contains("run_ms")) {  // absent when Deploy failed
      std::fprintf(stderr,
                   "rep %d input %d: unscaled run %.3f ms, run cpu %.3f ms, "
                   "setup %.6f s; probe %.3f ms wall, %.3f ms cpu\n",
                   kInputsPerRun + static_cast<int>(reps.size()), r.input,
                   r.values.at("run_ms"), r.values.at("run_cpu_ms"),
                   r.values.at("setup_s"), after.wall_ms, after.cpu_ms);
      ScaleTimings(before, after, &r);
    }
    before = after;
    reps.push_back(std::move(r));
  }
  bench.WriteTrace();

  auto collect = [&reps](const std::string& name, int input = -1) {
    std::vector<double> v;
    for (const RepResult& r : reps) {
      auto it = r.values.find(name);
      if (it != r.values.end() && (input < 0 || r.input == input)) {
        v.push_back(it->second);
      }
    }
    return v;
  };
  // Inputs differ in cost, so each input's median is taken on its own and
  // the run reports their mean.
  auto median = [&](const std::string& name) {
    double sum = 0;
    int inputs = 0;
    for (int input = 0; input < kInputsPerRun; ++input) {
      const std::vector<double> v = collect(name, input);
      if (v.empty()) continue;
      sum += Quantile(v, 0.5);
      ++inputs;
    }
    return inputs == 0 ? 0 : sum / inputs;
  };
  auto value_of = [&](const MetricSpec& m) {
    switch (m.stat) {
      case Stat::kMedian:
        return median(m.name);
      case Stat::kTail:
        return Quantile(collect(m.source), kTailQuantile);
      case Stat::kEventRate:
        return median("sim_events") / (median("run_ms") / 1e3);
    }
    return 0.0;
  };

  std::string metrics;
  const std::span<const MetricSpec> reported =
      opt.trace ? std::span<const MetricSpec>(kPerLayer)
                : std::span<const MetricSpec>(kEndToEnd);
  for (const MetricSpec& m : reported) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, value_of(m), m.unit);
    metrics += buf;
  }
  std::fprintf(stderr,
               "%zu timed repetitions; median run %.3f ms scaled, %.3f ms "
               "unscaled; median probe %.3f ms (checksum %llu)\n",
               reps.size(), median("run_ms"), median("unscaled_run_ms"),
               median("probe_ms"),
               static_cast<unsigned long long>(probe.checksum()));
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false", reps.size() + kInputsPerRun,
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace seep::perfbench

int main(int argc, char** argv) { return seep::perfbench::Main(argc, argv); }
