// Parcel-level tests of the TCP transport backend: a checkpoint parcel
// crosses the socket as one kCheckpoint message whose body is its
// serialized frame. The pump runs only while traffic is in flight (an idle
// transport schedules nothing), a sender detached mid-parcel leaves no frame
// counted in flight, a parcel from a killed VM never arrives, a parcel far
// past any socket buffer arrives byte-exact as one message, a parcel still
// queued when its receiver dies counts as one dropped frame, and the pump's
// parcel decode path rejects every truncation and bit flip of a parcel
// body with exactly one decode failure.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "runtime/ckpt_pipeline.h"
#include "runtime/operator_instance.h"
#include "runtime/tcp_transport.h"
#include "serde/encoder.h"
#include "serde/frame.h"
#include "sim/simulation.h"
#include "sps/sps.h"
#include "verify/invariant_auditor.h"
#include "workloads/wordcount/wordcount.h"

namespace seep {
namespace {

std::vector<uint8_t> Encoded(const core::StateCheckpoint& ckpt) {
  serde::Encoder enc;
  ckpt.Encode(&enc);
  return std::move(enc).TakeBuffer();
}

/// A checkpoint of `entries` distinct dictionary entries: at 20 000, about
/// 0.5 MB.
core::StateCheckpoint BigCheckpoint(OperatorId op, int entries) {
  core::StateCheckpoint big;
  big.op = op;
  big.instance = 77;
  for (int i = 0; i < entries; ++i) {
    big.processing.Add(static_cast<KeyHash>(i) * 2654435761u,
                       "entry-" + std::to_string(i));
  }
  return big;
}

/// A checkpoint of `entries` random values of `value_bytes` each, which
/// compression cannot shrink: the frame is at least entries * value_bytes.
core::StateCheckpoint IncompressibleCheckpoint(int entries,
                                               size_t value_bytes) {
  core::StateCheckpoint ckpt;
  ckpt.op = 3;
  ckpt.instance = 77;
  ckpt.seq = 1;
  Rng rng(2026);
  std::string value(value_bytes, '\0');
  for (int i = 0; i < entries; ++i) {
    for (char& c : value) c = static_cast<char>(rng.Next());
    ckpt.processing.Add(static_cast<KeyHash>(i) * 2654435761u, value);
  }
  return ckpt;
}

/// Runs the simulation on in 1 ms steps (at most 2 s) until neither a
/// checkpoint parcel nor a frame is in flight, then asserts that the TCP
/// transport's parcel table and its in-flight frame count are both empty:
/// nothing leaks, whatever died mid-parcel.
void ExpectNoParcelsLeft(sps::Sps& sps) {
  auto* tcp = dynamic_cast<runtime::TcpTransport*>(sps.cluster().transport());
  ASSERT_NE(tcp, nullptr);
  for (int i = 0; i < 2000; ++i) {
    if (tcp->parcels_in_flight() == 0 && tcp->frames_in_flight() == 0) break;
    sps.RunFor(0.001);
  }
  EXPECT_EQ(tcp->parcels_in_flight(), 0u);
  EXPECT_EQ(tcp->frames_in_flight(), 0u);
}

/// A bare cluster on the TCP backend: no query and no traffic but what a
/// test ships between VMs it attaches by hand.
runtime::ClusterConfig BareTcpConfig() {
  runtime::ClusterConfig config;
  config.transport = runtime::TransportKind::kTcp;
  config.audit_level = verify::kAuditOff;
  return config;
}

TEST(TcpTransportPump, IdleTransportSchedulesNothing) {
  // The pump runs only while traffic is in flight: two attached VMs with
  // nothing to say leave the event queue empty, one parcel starts the
  // pump, the pump keeps running while its message is in flight, and once
  // the parcel has arrived the queue is empty again.
  core::QueryGraph graph;
  runtime::Cluster cluster(&graph, BareTcpConfig());
  auto* tcp = dynamic_cast<runtime::TcpTransport*>(cluster.transport());
  ASSERT_NE(tcp, nullptr);
  sim::Simulation* sim = cluster.simulation();
  tcp->AttachVm(1);
  tcp->AttachVm(2);
  sim->RunUntil(SecondsToSim(1));
  EXPECT_EQ(sim->pending_events(), 0u);

  int arrivals = 0;
  tcp->ShipCheckpoint(1, 2, runtime::CheckpointParcel{BigCheckpoint(3, 20000)},
                      [&](runtime::ArrivedCheckpoint) { ++arrivals; });
  EXPECT_EQ(sim->pending_events(), 1u);  // one pump
  for (int i = 0; i < 2000 && sim->pending_events() > 0; ++i) {
    sim->RunUntil(sim->Now() + MillisToSim(1));
    if (tcp->frames_in_flight() > 0) {
      ASSERT_EQ(sim->pending_events(), 1u);
    }
  }
  EXPECT_EQ(arrivals, 1);
  EXPECT_EQ(sim->pending_events(), 0u);
  EXPECT_EQ(tcp->frames_in_flight(), 0u);
  EXPECT_EQ(tcp->parcels_in_flight(), 0u);
}

TEST(TcpTransportPump, DetachedSenderLeavesNoFramesInFlight) {
  // Regression: DetachVm wrote off only the frames addressed *to* the
  // detached VM. Frames its worker had queued for live peers died with the
  // worker uncounted, so the in-flight total never returned to zero: every
  // later pump waited out its full bound, and the pump never stopped.
  // Detaching the sender right after it posts a half-megabyte parcel leaves
  // most of its message in the sender's queues.
  core::QueryGraph graph;
  runtime::Cluster cluster(&graph, BareTcpConfig());
  auto* tcp = dynamic_cast<runtime::TcpTransport*>(cluster.transport());
  ASSERT_NE(tcp, nullptr);
  sim::Simulation* sim = cluster.simulation();
  const core::StateCheckpoint big = BigCheckpoint(3, 20000);
  for (VmId round = 0; round < 10; ++round) {
    const VmId sender = 2 * round + 1;
    const VmId receiver = 2 * round + 2;
    tcp->AttachVm(sender);
    tcp->AttachVm(receiver);
    int arrivals = 0;
    tcp->ShipCheckpoint(sender, receiver, runtime::CheckpointParcel{big},
                        [&](runtime::ArrivedCheckpoint) { ++arrivals; });
    tcp->DetachVm(sender);
    for (int i = 0; i < 2000 && sim->pending_events() > 0; ++i) {
      sim->RunUntil(sim->Now() + MillisToSim(1));
    }
    EXPECT_EQ(arrivals, 0) << "round " << round;
    EXPECT_EQ(tcp->frames_in_flight(), 0u) << "round " << round;
    EXPECT_EQ(tcp->parcels_in_flight(), 0u) << "round " << round;
    EXPECT_EQ(sim->pending_events(), 0u) << "round " << round;
    tcp->DetachVm(receiver);
  }
}

TEST(TcpParcelTest, SixteenMegabyteParcelArrivesWholeAsOneMessage) {
  // A parcel of 16 MiB of incompressible values, far past any socket
  // buffer, crosses as one message: it arrives byte-exact within 2 sim-s,
  // and nothing is left in flight.
  core::QueryGraph graph;
  runtime::Cluster cluster(&graph, BareTcpConfig());
  auto* tcp = dynamic_cast<runtime::TcpTransport*>(cluster.transport());
  ASSERT_NE(tcp, nullptr);
  sim::Simulation* sim = cluster.simulation();
  tcp->AttachVm(1);
  tcp->AttachVm(2);

  const core::StateCheckpoint big =
      IncompressibleCheckpoint(/*entries=*/1024, /*value_bytes=*/16 << 10);
  const std::vector<uint8_t> sent = Encoded(big);
  ASSERT_GE(sent.size(), size_t{16} << 20);
  int arrivals = 0;
  bool exact = false;
  tcp->ShipCheckpoint(1, 2, runtime::CheckpointParcel{big},
                      [&](runtime::ArrivedCheckpoint arrived) {
                        ++arrivals;
                        exact = Encoded(arrived.ckpt) == sent;
                      });
  const SimTime deadline = sim->Now() + SecondsToSim(2);
  while (arrivals == 0 && sim->pending_events() > 0 && sim->Now() < deadline) {
    sim->RunUntil(sim->Now() + MillisToSim(1));
  }
  ASSERT_EQ(arrivals, 1);
  EXPECT_TRUE(exact);
  EXPECT_EQ(tcp->messages_delivered(), 1u);
  EXPECT_EQ(tcp->frames_dropped(), 0u);
  EXPECT_EQ(tcp->parcels_in_flight(), 0u);
  EXPECT_EQ(tcp->frames_in_flight(), 0u);
  EXPECT_EQ(cluster.metrics()->ckpt_decode_failures, 0u);
}

TEST(TcpParcelTest, ParcelQueuedWhenItsReceiverDiesIsOneDroppedFrame) {
  // frames_dropped() counts what the workers' drop callback reports. A
  // small parcel opens the link between two bare VMs; then a 16 MiB
  // incompressible parcel, far past what loopback socket buffers take,
  // leaves most of its one frame queued at the sender when the receiver
  // is detached in the same sim instant. The link's death drops that frame.
  core::QueryGraph graph;
  runtime::Cluster cluster(&graph, BareTcpConfig());
  auto* tcp = dynamic_cast<runtime::TcpTransport*>(cluster.transport());
  ASSERT_NE(tcp, nullptr);
  sim::Simulation* sim = cluster.simulation();
  tcp->AttachVm(1);
  tcp->AttachVm(2);
  auto run_while_pumping = [&] {
    for (int i = 0; i < 2000 && sim->pending_events() > 0; ++i) {
      sim->RunUntil(sim->Now() + MillisToSim(1));
    }
  };

  int arrivals = 0;
  const runtime::ArrivalFn on_arrival = [&](runtime::ArrivedCheckpoint) {
    ++arrivals;
  };
  tcp->ShipCheckpoint(1, 2, runtime::CheckpointParcel{BigCheckpoint(3, 100)},
                      on_arrival);
  run_while_pumping();
  ASSERT_EQ(arrivals, 1);
  ASSERT_EQ(tcp->frames_dropped(), 0u);

  tcp->ShipCheckpoint(
      1, 2,
      runtime::CheckpointParcel{
          IncompressibleCheckpoint(/*entries=*/1024, /*value_bytes=*/16 << 10)},
      on_arrival);
  tcp->DetachVm(2);
  run_while_pumping();
  EXPECT_EQ(tcp->frames_dropped(), 1u);
  EXPECT_EQ(tcp->frames_in_flight(), 0u);
  EXPECT_EQ(tcp->parcels_in_flight(), 0u);
  EXPECT_EQ(arrivals, 1);
}

TEST(TcpParcelTest, ParcelFromAKilledVmNeverArrives) {
  // A parcel crosses the socket as its real bytes, in one message, and
  // arrives intact; the same parcel from a VM killed while its message is
  // in flight never arrives — DetachVm drops parcels from the dead VM, not
  // only those to it — and leaves no parcel-table entry behind.
  workloads::wordcount::WordCountConfig wc;
  wc.rate_tuples_per_sec = 100;
  wc.vocabulary = 200;
  wc.window = SecondsToSim(30);
  wc.seed = 17;
  sps::SpsConfig config;
  config.cluster.transport = runtime::TransportKind::kTcp;
  config.cluster.pool.target_size = 3;
  config.scaling.enabled = false;
  workloads::wordcount::WordCountQuery query =
      workloads::wordcount::BuildWordCountQuery(wc);
  const OperatorId counter = query.counter;
  sps::Sps sps(std::move(query.graph), config);
  ASSERT_TRUE(sps.Deploy().ok());
  sps.RunUntil(10);

  runtime::Cluster& cluster = sps.cluster();
  auto* tcp = dynamic_cast<runtime::TcpTransport*>(cluster.transport());
  ASSERT_NE(tcp, nullptr);
  const VmId sender =
      cluster.GetInstance(cluster.LiveInstancesOf(counter).front())->vm();
  VmId receiver = kInvalidVm;
  for (const auto& [id, inst] : cluster.instances()) {
    if (inst->alive() && inst->vm() != sender) receiver = inst->vm();
  }
  ASSERT_NE(receiver, kInvalidVm);

  core::StateCheckpoint big = BigCheckpoint(counter, 20000);
  int arrivals = 0;
  std::vector<uint8_t> arrived;
  const runtime::ArrivalFn on_arrival = [&](runtime::ArrivedCheckpoint a) {
    ++arrivals;
    arrived = Encoded(a.ckpt);
  };
  auto ship = [&](uint64_t seq) {
    big.seq = seq;
    cluster.transport()->ShipCheckpoint(
        sender, receiver, runtime::CheckpointParcel{big}, on_arrival);
  };

  // Pause every instance and let the traffic drain, so the parcel is the
  // only message that crosses while it is in flight.
  for (const auto& [id, inst] : cluster.instances()) inst->Pause();
  sps.RunFor(1);
  ASSERT_EQ(tcp->frames_in_flight(), 0u);
  const uint64_t delivered = tcp->messages_delivered();
  ship(1);
  sps.RunFor(1);
  ASSERT_EQ(arrivals, 1);
  EXPECT_EQ(arrived, Encoded(big));
  EXPECT_EQ(tcp->messages_delivered(), delivered + 1);
  for (const auto& [id, inst] : cluster.instances()) inst->Resume();

  ship(2);
  ASSERT_TRUE(cluster.membership()->KillVm(sender).ok());
  sps.RunFor(1);
  EXPECT_EQ(arrivals, 1);
  ExpectNoParcelsLeft(sps);
}

/// One parcel body of a real checkpoint, as TcpTransport posts it: the
/// checkpoint's frame.
struct ParcelFixture {
  core::StateCheckpoint ckpt;
  std::vector<uint8_t> body;
};

ParcelFixture MakeParcelFixture(bool compress) {
  ParcelFixture f;
  f.ckpt.op = 3;
  f.ckpt.instance = 11;
  f.ckpt.seq = 7;
  f.ckpt.positions.Set(1, 33);
  for (int i = 0; i < 20; ++i) {
    f.ckpt.processing.Add(100 + i, "count-" + std::to_string(i % 3));
  }
  f.body = runtime::EncodeCheckpointFrame(f.ckpt, compress);
  EXPECT_EQ(f.body[serde::kFrameHeaderBytes], compress ? 1 : 0);  // codec
  return f;
}

TEST(TcpParcelDecodeTest, EveryTruncationAndBitFlipIsOneDecodeFailure) {
  core::QueryGraph graph;
  runtime::ClusterConfig config;
  config.audit_level = verify::kAuditOff;
  runtime::Cluster cluster(&graph, config);
  const uint64_t& failures = cluster.metrics()->ckpt_decode_failures;

  for (bool compress : {false, true}) {
    const ParcelFixture f = MakeParcelFixture(compress);
    int arrivals = 0;
    const runtime::ArrivalFn on_arrival =
        [&](runtime::ArrivedCheckpoint arrived) {
          ++arrivals;
          EXPECT_EQ(Encoded(arrived.ckpt), Encoded(f.ckpt));
        };
    // Feeds one body through the pump's decode path; returns the decode
    // failures it counted.
    auto feed = [&](const std::vector<uint8_t>& body) {
      const uint64_t before = failures;
      runtime::ReceiveCheckpointFrame(&cluster, body, on_arrival);
      return failures - before;
    };

    ASSERT_EQ(feed(f.body), 0u);
    ASSERT_EQ(arrivals, 1);

    for (size_t len = 0; len < f.body.size(); ++len) {
      const std::vector<uint8_t> cut(f.body.begin(), f.body.begin() + len);
      EXPECT_EQ(feed(cut), 1u) << "truncated to " << len << " bytes";
    }
    for (size_t bit = 0; bit < f.body.size() * 8; ++bit) {
      std::vector<uint8_t> flipped = f.body;
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      EXPECT_EQ(feed(flipped), 1u) << "bit " << bit << " flipped";
    }
    EXPECT_EQ(arrivals, 1) << "a corrupted parcel was delivered";
  }
}

}  // namespace
}  // namespace seep
