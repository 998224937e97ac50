// Unit tests for the discrete-event core: event ordering, run-until
// semantics, and the network model (latency, bandwidth FIFO
// serialisation, drops at detached endpoints).

#include <gtest/gtest.h>

#include "sim/network.h"
#include "sim/simulation.h"

namespace seep::sim {
namespace {

TEST(SimulationTest, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(300, [&] { order.push_back(3); });
  sim.Schedule(100, [&] { order.push_back(1); });
  sim.Schedule(200, [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 300);
}

TEST(SimulationTest, TiesBreakByInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(50, [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulationTest, RunUntilStopsAndAdvancesClock) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(100, [&] { ++fired; });
  sim.Schedule(500, [&] { ++fired; });
  sim.RunUntil(200);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 200);
  sim.RunUntil(600);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 600);
}

TEST(SimulationTest, NestedScheduling) {
  Simulation sim;
  std::vector<SimTime> times;
  sim.Schedule(10, [&] {
    times.push_back(sim.Now());
    sim.Schedule(10, [&] { times.push_back(sim.Now()); });
  });
  sim.RunAll();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 20}));
}

TEST(SimulationTest, ZeroDelayFiresAtCurrentTime) {
  Simulation sim;
  sim.Schedule(100, [&] {
    sim.Schedule(0, [&] { EXPECT_EQ(sim.Now(), 100); });
  });
  sim.RunAll();
}

// ------------------------------------------------------------------ Network

NetworkConfig FastNet() {
  NetworkConfig cfg;
  cfg.latency = MillisToSim(1);
  cfg.bandwidth_bytes_per_sec = 1e6;  // 1 MB/s: 1 KB takes 1 ms
  return cfg;
}

TEST(NetworkTest, DeliveryIncludesLatencyAndTransmission) {
  Simulation sim;
  Network net(&sim, FastNet());
  net.Attach(1);
  net.Attach(2);
  SimTime delivered_at = -1;
  net.Send(1, 2, 1000, [&] { delivered_at = sim.Now(); });
  sim.RunAll();
  // 1 ms uplink serialisation + 1 ms latency + 1 ms downlink.
  EXPECT_EQ(delivered_at, MillisToSim(3));
}

TEST(NetworkTest, UplinkSerialisesFifo) {
  Simulation sim;
  Network net(&sim, FastNet());
  net.Attach(1);
  net.Attach(2);
  net.Attach(3);
  std::vector<std::pair<int, SimTime>> deliveries;
  // Two messages from the same sender: the second waits for the first's
  // uplink transmission even though the receivers differ.
  net.Send(1, 2, 10000, [&] { deliveries.push_back({2, sim.Now()}); });
  net.Send(1, 3, 1000, [&] { deliveries.push_back({3, sim.Now()}); });
  sim.RunAll();
  ASSERT_EQ(deliveries.size(), 2u);
  // Message to 3 finishes its uplink at 11 ms, so it arrives after ~13 ms,
  // later than it would alone (3 ms).
  EXPECT_GT(deliveries[1].second, MillisToSim(12));
}

TEST(NetworkTest, SendToDetachedEndpointDrops) {
  Simulation sim;
  Network net(&sim, FastNet());
  net.Attach(1);
  bool delivered = false;
  net.Send(1, 99, 100, [&] { delivered = true; });
  sim.RunAll();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST(NetworkTest, DetachWhileInFlightDrops) {
  Simulation sim;
  Network net(&sim, FastNet());
  net.Attach(1);
  net.Attach(2);
  bool delivered = false;
  net.Send(1, 2, 1000, [&] { delivered = true; });
  sim.Schedule(MillisToSim(1), [&] { net.Detach(2); });
  sim.RunAll();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST(NetworkTest, CountsBytesAndUplinkLoad) {
  Simulation sim;
  Network net(&sim, FastNet());
  net.Attach(1);
  net.Attach(2);
  net.Send(1, 2, 500, [] {});
  net.Send(1, 2, 700, [] {});
  sim.RunAll();
  EXPECT_EQ(net.bytes_sent(), 1200u);
  EXPECT_EQ(net.UplinkBytes(1), 1200u);
  EXPECT_EQ(net.UplinkBytes(2), 0u);
  EXPECT_EQ(net.messages_sent(), 2u);
}

TEST(NetworkTest, LargeTransferScalesWithBandwidth) {
  Simulation sim;
  Network net(&sim, FastNet());
  net.Attach(1);
  net.Attach(2);
  SimTime delivered_at = -1;
  net.Send(1, 2, 1'000'000, [&] { delivered_at = sim.Now(); });  // 1 MB
  sim.RunAll();
  // ~1 s uplink + 1 ms + ~1 s downlink.
  EXPECT_GT(delivered_at, SecondsToSim(1.9));
  EXPECT_LT(delivered_at, SecondsToSim(2.2));
}

}  // namespace
}  // namespace seep::sim
