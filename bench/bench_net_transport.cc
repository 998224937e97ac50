// Benchmarks for the networking subsystem: raw loopback shipping through
// net::LocalCluster (throughput and round-trip latency across tuple-batch
// sizes), then one checkpoint parcel at a time through the TCP transport
// (serialize to arrival, 64 KiB to 16 MiB of incompressible state), then
// the Transport seam end to end — the windowed word-count workload on the
// TCP backend versus the simulated one, same sim horizon, wall-clock
// compared, with the process's context switches per TCP message. One
// thread drives both ends of every socket, as the TCP transport does.
// Results go to stdout and BENCH_net_transport.json.
//
// Usage: bench_net_transport [output.json]

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/tuple.h"
#include "net/local_cluster.h"
#include "net/wire.h"
#include "runtime/ckpt_pipeline.h"
#include "runtime/cluster.h"
#include "runtime/tcp_transport.h"
#include "serde/encoder.h"
#include "sim/simulation.h"
#include "sps/sps.h"
#include "workloads/wordcount/wordcount.h"

namespace seep::bench {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedUs(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// An encoded `batch_tuples`-tuple batch with word-count-shaped payloads,
/// wrapped in a wire envelope from VM 1 to VM 2.
net::Message MakeBatchMessage(size_t batch_tuples, uint64_t seed) {
  Rng rng(seed);
  core::TupleBatch batch;
  batch.from = 1;
  batch.tuples.reserve(batch_tuples);
  for (size_t i = 0; i < batch_tuples; ++i) {
    core::Tuple t;
    t.timestamp = static_cast<int64_t>(i);
    t.key = rng.Next();
    t.origin = 1;
    t.event_time = static_cast<SimTime>(i);
    t.text = std::string(4 + rng.NextBounded(8),
                         static_cast<char>('a' + rng.NextBounded(26)));
    batch.tuples.push_back(std::move(t));
  }
  serde::Encoder enc;
  batch.Encode(&enc);
  net::Message msg;
  msg.type = net::MessageType::kBatch;
  msg.from_vm = 1;
  msg.body = enc.buffer();
  return msg;
}

struct LoopbackRow {
  size_t batch_tuples;
  size_t msg_bytes;
  double throughput_msgs_s;
  double throughput_mb_s;
  double rtt_p50_us;
  double rtt_p99_us;
};

/// Polls `cluster` until `pred` holds; aborts after `limit` of wall clock.
template <typename Pred>
void PollUntil(net::LocalCluster& cluster, Pred pred,
               std::chrono::seconds limit) {
  const auto deadline = Clock::now() + limit;
  while (!pred()) {
    SEEP_CHECK(Clock::now() < deadline);
    cluster.Poll(std::chrono::milliseconds(1));
  }
}

/// One-way flood VM 1 -> VM 2, then one-at-a-time ping-pong for latency.
LoopbackRow BenchLoopback(size_t batch_tuples) {
  const net::Message msg =
      MakeBatchMessage(batch_tuples, 0xF00D + batch_tuples);
  // Enough messages to amortise connect/warm-up, capped so the largest
  // batches still finish quickly.
  const size_t total = std::max<size_t>(500, 65536 / std::max<size_t>(
                                                 1, batch_tuples / 8));

  size_t received = 0;
  bool echo = false;  // VM 2 counts the flood, then echoes the pings
  bool echoed = false;
  net::LocalCluster cluster;
  SEEP_CHECK(
      cluster.StartWorker(1, [&](net::Message) { echoed = true; }).ok());
  SEEP_CHECK(cluster
                 .StartWorker(2,
                              [&](net::Message m) {
                                if (!echo) {
                                  ++received;
                                  return;
                                }
                                m.from_vm = 2;
                                // seep-ok: unchecked-status -- bench echo
                                (void)cluster.Post(2, 1, m);
                              })
                 .ok());

  // Warm-up: establishes the 1->2 connection (connect + hello + first frame).
  SEEP_CHECK(cluster.Post(1, 2, msg) != net::SendStatus::kClosed);
  PollUntil(cluster, [&] { return received >= 1; }, std::chrono::seconds(10));

  // Throughput: flood, letting the receiver drain whenever the sender's
  // queue passes the watermark, and retrying a frame the cap rejected.
  const auto start = Clock::now();
  for (size_t i = 0; i < total; ++i) {
    net::SendStatus st;
    while ((st = cluster.Post(1, 2, msg)) == net::SendStatus::kOverflow) {
      cluster.Poll(std::chrono::microseconds::zero());
    }
    if (st == net::SendStatus::kPressured) {
      cluster.Poll(std::chrono::microseconds::zero());
    }
  }
  PollUntil(cluster, [&] { return received >= total + 1; },
            std::chrono::seconds(60));
  const double flood_us = ElapsedUs(start);

  // Latency: single outstanding round trip, the receiver echoing from its
  // message callback. 2->1 uses its own connection, warmed by the first
  // (discarded) rounds.
  echo = true;
  std::vector<double> rtts;
  constexpr int kWarmup = 50, kRounds = 500;
  for (int i = 0; i < kWarmup + kRounds; ++i) {
    const auto ping = Clock::now();
    echoed = false;
    SEEP_CHECK(cluster.Post(1, 2, msg) != net::SendStatus::kClosed);
    PollUntil(cluster, [&] { return echoed; }, std::chrono::seconds(10));
    if (i >= kWarmup) rtts.push_back(ElapsedUs(ping));
  }
  std::sort(rtts.begin(), rtts.end());

  const size_t frame_bytes = net::EncodeMessage(msg).size();
  LoopbackRow row;
  row.batch_tuples = batch_tuples;
  row.msg_bytes = frame_bytes;
  row.throughput_msgs_s = total / (flood_us / 1e6);
  row.throughput_mb_s =
      (double(total) * double(frame_bytes)) / (1 << 20) / (flood_us / 1e6);
  row.rtt_p50_us = rtts[rtts.size() / 2];
  row.rtt_p99_us = rtts[(rtts.size() * 99) / 100];
  return row;
}

/// One checkpoint size shipped parcel by parcel between two bare TCP VMs:
/// the median wall clock from ShipCheckpoint (which serializes the parcel)
/// to its arrival callback (which runs after the decode), and the frame
/// bytes per second that makes.
struct ParcelRow {
  size_t checkpoint_bytes;
  size_t frame_bytes;
  int ships;
  double p50_us;
  double mb_s;
};

/// A checkpoint of about `bytes` of random 4 KiB values, which compression
/// cannot shrink, so its frame ships raw at about its encoded size.
core::StateCheckpoint IncompressibleCheckpoint(size_t bytes) {
  constexpr size_t kValueBytes = 4096;
  core::StateCheckpoint ckpt;
  ckpt.op = 3;
  ckpt.instance = 11;
  ckpt.seq = 1;
  Rng rng(0xC4EC + bytes);
  std::string value(kValueBytes, '\0');
  for (size_t i = 0; i < bytes / kValueBytes; ++i) {
    for (char& c : value) c = static_cast<char>(rng.Next());
    ckpt.processing.Add(rng.Next(), value);
  }
  return ckpt;
}

ParcelRow BenchParcel(size_t bytes) {
  constexpr int kWarmup = 1, kShips = 15;
  const core::StateCheckpoint ckpt = IncompressibleCheckpoint(bytes);
  core::QueryGraph graph;
  runtime::ClusterConfig config;
  config.transport = runtime::TransportKind::kTcp;
  config.audit_level = 0;
  runtime::Cluster cluster(&graph, config);
  auto* tcp = dynamic_cast<runtime::TcpTransport*>(cluster.transport());
  SEEP_CHECK(tcp != nullptr);
  sim::Simulation* sim = cluster.simulation();
  tcp->AttachVm(1);
  tcp->AttachVm(2);

  std::vector<double> us;
  for (int i = 0; i < kWarmup + kShips; ++i) {
    runtime::CheckpointParcel parcel{ckpt};  // the copy stays off the clock
    bool arrived = false;
    const auto start = Clock::now();
    tcp->ShipCheckpoint(1, 2, std::move(parcel),
                        [&](runtime::ArrivedCheckpoint) { arrived = true; });
    while (!arrived) {
      SEEP_CHECK(sim->pending_events() > 0);  // a lost parcel stops the pump
      sim->RunUntil(sim->Now() + MillisToSim(1));
    }
    if (i >= kWarmup) us.push_back(ElapsedUs(start));
  }
  std::sort(us.begin(), us.end());

  ParcelRow row;
  row.checkpoint_bytes = bytes;
  row.frame_bytes =
      runtime::EncodeCheckpointFrame(ckpt, runtime::kCompressCheckpoints)
          .size();
  row.ships = kShips;
  row.p50_us = us[us.size() / 2];
  row.mb_s = double(row.frame_bytes) / (1 << 20) / (row.p50_us / 1e6);
  return row;
}

/// The fastest of three runs: its wall clock, the messages it delivered
/// over TCP, and the whole process's context switches (voluntary plus
/// involuntary) while it ran.
struct WorkloadRow {
  const char* backend;
  double wall_ms;
  uint64_t tcp_messages;
  uint64_t ctx_switches;

  double SwitchesPerMessage() const {
    return tcp_messages > 0 ? double(ctx_switches) / double(tcp_messages)
                            : 0.0;
  }
};

/// The process's context switches so far, voluntary and involuntary.
uint64_t ContextSwitches() {
  rusage usage{};
  SEEP_CHECK_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  return static_cast<uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
}

/// Wall-clock for 60 simulated seconds of word count on one backend.
WorkloadRow BenchWorkload(runtime::TransportKind kind, const char* label) {
  WorkloadRow row{label, 1e18, 0, 0};
  for (int rep = 0; rep < 3; ++rep) {
    workloads::wordcount::WordCountConfig wc;
    wc.rate_tuples_per_sec = 100;
    wc.vocabulary = 200;
    wc.window = SecondsToSim(10);
    wc.seed = 17;
    auto query = workloads::wordcount::BuildWordCountQuery(wc);
    sps::SpsConfig config;
    config.cluster.transport = kind;
    config.cluster.checkpoint_interval = SecondsToSim(5);
    config.cluster.pool.target_size = 3;
    config.scaling.enabled = false;
    sps::Sps sps(std::move(query.graph), config);
    SEEP_CHECK(sps.Deploy().ok());
    const uint64_t switches_before = ContextSwitches();
    const auto start = Clock::now();
    sps.RunFor(60);
    const double wall_ms = ElapsedUs(start) / 1e3;
    const uint64_t switches = ContextSwitches() - switches_before;
    if (wall_ms >= row.wall_ms) continue;
    row.wall_ms = wall_ms;
    row.ctx_switches = switches;
    if (auto* tcp = dynamic_cast<runtime::TcpTransport*>(
            sps.cluster().transport())) {
      row.tcp_messages = tcp->messages_delivered();
    }
  }
  return row;
}

// ------------------------------------------------------------------- report

void WriteJson(FILE* f, const std::vector<LoopbackRow>& loopback,
               const std::vector<ParcelRow>& parcel,
               const std::vector<WorkloadRow>& workload) {
  std::fprintf(f, "{\n  \"bench\": \"net_transport\",\n  \"loopback\": [\n");
  for (size_t i = 0; i < loopback.size(); ++i) {
    const LoopbackRow& r = loopback[i];
    std::fprintf(f,
                 "    {\"batch_tuples\": %zu, \"msg_bytes\": %zu, "
                 "\"throughput_msgs_s\": %.0f, \"throughput_mb_s\": %.1f, "
                 "\"rtt_p50_us\": %.1f, \"rtt_p99_us\": %.1f}%s\n",
                 r.batch_tuples, r.msg_bytes, r.throughput_msgs_s,
                 r.throughput_mb_s, r.rtt_p50_us, r.rtt_p99_us,
                 i + 1 < loopback.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"parcel\": [\n");
  for (size_t i = 0; i < parcel.size(); ++i) {
    const ParcelRow& r = parcel[i];
    std::fprintf(f,
                 "    {\"checkpoint_bytes\": %zu, \"frame_bytes\": %zu, "
                 "\"ships\": %d, \"p50_us\": %.1f, \"mb_s\": %.1f}%s\n",
                 r.checkpoint_bytes, r.frame_bytes, r.ships, r.p50_us,
                 r.mb_s, i + 1 < parcel.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"workload\": [\n");
  for (size_t i = 0; i < workload.size(); ++i) {
    const WorkloadRow& r = workload[i];
    std::fprintf(f,
                 "    {\"backend\": \"%s\", \"wall_ms\": %.1f, "
                 "\"tcp_messages\": %llu, \"ctx_switches\": %llu, "
                 "\"ctx_switches_per_msg\": %.3f}%s\n",
                 r.backend, r.wall_ms,
                 static_cast<unsigned long long>(r.tcp_messages),
                 static_cast<unsigned long long>(r.ctx_switches),
                 r.SwitchesPerMessage(), i + 1 < workload.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

int Main(int argc, char** argv) {
  const char* out = argc > 1 ? argv[1] : "BENCH_net_transport.json";
  FILE* f = std::fopen(out, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out);
    return 1;
  }

  std::printf("==== Loopback TCP shipping (net::LocalCluster) ====\n");
  std::printf("%12s %10s %12s %10s %10s %10s\n", "batch_tuples", "msg_bytes",
              "msgs/s", "MB/s", "p50(us)", "p99(us)");
  std::vector<LoopbackRow> loopback;
  for (size_t batch : {8u, 64u, 512u, 2048u}) {
    const LoopbackRow row = BenchLoopback(batch);
    std::printf("%12zu %10zu %12.0f %10.1f %10.1f %10.1f\n", row.batch_tuples,
                row.msg_bytes, row.throughput_msgs_s, row.throughput_mb_s,
                row.rtt_p50_us, row.rtt_p99_us);
    std::fflush(stdout);
    loopback.push_back(row);
  }

  std::printf("\n==== One checkpoint parcel over TCP, serialize to arrival "
              "====\n");
  std::printf("%16s %12s %6s %12s %10s\n", "checkpoint_bytes", "frame_bytes",
              "ships", "p50(us)", "MB/s");
  std::vector<ParcelRow> parcel;
  for (size_t bytes : {size_t{64} << 10, size_t{1} << 20, size_t{16} << 20}) {
    const ParcelRow row = BenchParcel(bytes);
    std::printf("%16zu %12zu %6d %12.1f %10.1f\n", row.checkpoint_bytes,
                row.frame_bytes, row.ships, row.p50_us, row.mb_s);
    std::fflush(stdout);
    parcel.push_back(row);
  }

  std::printf("\n==== Word count, 60 sim-seconds: sim vs TCP backend ====\n");
  std::vector<WorkloadRow> workload;
  workload.push_back(BenchWorkload(runtime::TransportKind::kSim, "sim"));
  workload.push_back(BenchWorkload(runtime::TransportKind::kTcp, "tcp"));
  for (const WorkloadRow& r : workload) {
    std::printf("%-4s backend: %8.1f ms wall, %6llu context switches",
                r.backend, r.wall_ms,
                static_cast<unsigned long long>(r.ctx_switches));
    if (r.tcp_messages > 0) {
      std::printf("  (%llu messages over loopback TCP, %.3f switches each)",
                  static_cast<unsigned long long>(r.tcp_messages),
                  r.SwitchesPerMessage());
    }
    std::printf("\n");
  }
  std::printf("tcp/sim wall clock: %.2fx (target 1.5x)\n",
              workload[1].wall_ms / workload[0].wall_ms);

  WriteJson(f, loopback, parcel, workload);
  std::fclose(f);
  std::printf("wrote %s\n", out);
  return 0;
}

}  // namespace
}  // namespace seep::bench

int main(int argc, char** argv) { return seep::bench::Main(argc, argv); }
