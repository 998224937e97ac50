// Unit tests for the discrete-event core: event ordering, run-until
// semantics, the move-only task and its slot table (inline and heap
// closures, destruction, slot reuse, growth while a task runs), and the
// network model (latency, bandwidth FIFO serialisation, drops at detached
// endpoints).

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/network.h"
#include "sim/simulation.h"
#include "sim/task.h"

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

// ---------------------------------------------------------- Task and slots

// Counts the live copies of a closure's capture: every construction adds
// one and every destruction takes one away, so a closure that is destroyed
// twice, or never, leaves the count off zero.
struct LiveCount {
  int live = 0;
  int fired = 0;
};

class Tracked {
 public:
  explicit Tracked(LiveCount* count) : count_(count) { ++count_->live; }
  Tracked(Tracked&& other) noexcept : count_(other.count_) {
    ++count_->live;
  }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() { --count_->live; }
  LiveCount* count() const { return count_; }

 private:
  LiveCount* count_;
};

TEST(TaskTest, MoveOnlyCaptureFires) {
  Simulation sim;
  int seen = 0;
  auto value = std::make_unique<int>(7);
  sim.Schedule(10, [value = std::move(value), &seen] { seen = *value; });
  sim.RunAll();
  EXPECT_EQ(seen, 7);
}

TEST(TaskTest, ClosureLargerThanInlineStorageFiresAndDiesOnce) {
  LiveCount count;
  std::array<char, 2 * Task::kInlineBytes> bulk{};
  bulk.back() = 'z';
  {
    Simulation sim;
    auto big = [tracked = Tracked(&count), bulk] {
      ++tracked.count()->fired;
      EXPECT_EQ(bulk.back(), 'z');
    };
    static_assert(sizeof(big) > Task::kInlineBytes);
    auto small = [tracked = Tracked(&count)] { ++tracked.count()->fired; };
    static_assert(sizeof(small) <= Task::kInlineBytes);
    sim.Schedule(5, std::move(big));
    sim.Schedule(5, std::move(small));
    sim.RunAll();
    EXPECT_EQ(count.fired, 2);
    // The moved-from locals still hold their (moved-from) captures.
    EXPECT_EQ(count.live, 2);
  }
  EXPECT_EQ(count.live, 0);
  EXPECT_EQ(count.fired, 2);
}

TEST(TaskTest, PendingClosuresDieWithTheSimulation) {
  LiveCount count;
  {
    Simulation sim;
    std::array<char, 2 * Task::kInlineBytes> bulk{};
    for (int i = 0; i < 100; ++i) {
      if (i % 2 == 0) {
        sim.Schedule(i, [tracked = Tracked(&count)] {
          ++tracked.count()->fired;
        });
      } else {
        sim.Schedule(i, [tracked = Tracked(&count), bulk] {
          ++tracked.count()->fired;
        });
      }
    }
    EXPECT_EQ(count.live, 100);
    sim.RunUntil(49);  // fires 0..49, half of each kind
    EXPECT_EQ(count.fired, 50);
    EXPECT_EQ(count.live, 50);
    EXPECT_EQ(sim.pending_events(), 50u);
  }
  EXPECT_EQ(count.live, 0);
  EXPECT_EQ(count.fired, 50);
}

TEST(SimulationTest, ReusedSlotsKeepTimeThenInsertionOrder) {
  constexpr int kEvents = 400;
  Simulation sim;
  std::vector<std::pair<SimTime, int>> fired;
  std::vector<std::pair<SimTime, int>> expected;
  auto schedule = [&](int label) {
    const SimTime at = 100 * (1 + label % 4);
    sim.ScheduleAt(at, [&fired, &sim, label] {
      fired.emplace_back(sim.Now(), label);
    });
  };
  for (int label = 0; label < kEvents; ++label) schedule(label);
  sim.RunUntil(200);  // half: the events at 100 and 200
  EXPECT_EQ(fired.size(), kEvents / 2u);
  // The freed slots are reused, at the two times still pending.
  for (int label = kEvents; label < 2 * kEvents; ++label) {
    if (label % 4 >= 2) schedule(label);
  }
  sim.RunAll();
  for (const SimTime at : {100, 200, 300, 400}) {
    for (int label = 0; label < 2 * kEvents; ++label) {
      if (100 * (1 + label % 4) != at) continue;
      if (label >= kEvents && label % 4 < 2) continue;
      expected.emplace_back(at, label);
    }
  }
  EXPECT_EQ(fired, expected);
}

TEST(SimulationTest, TaskSchedulingTenThousandEventsFromItsBody) {
  constexpr int kEvents = 10000;
  Simulation sim;
  std::vector<int> order;
  const std::string payload(100, 'p');
  int mutated = 0;
  sim.Schedule(1, [&, payload, calls = 0]() mutable {
    // The task table grows under this running task; its captures must
    // stay intact.
    for (int i = 0; i < kEvents; ++i) {
      sim.Schedule(1 + i % 3, [&order, i] { order.push_back(i); });
      ++calls;
    }
    EXPECT_EQ(payload, std::string(100, 'p'));
    mutated = calls;
  });
  sim.RunAll();
  EXPECT_EQ(mutated, kEvents);
  ASSERT_EQ(order.size(), static_cast<size_t>(kEvents));
  std::vector<int> expected;
  for (int delay = 1; delay <= 3; ++delay) {
    for (int i = delay - 1; i < kEvents; i += 3) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.executed_events(), kEvents + 1u);
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
