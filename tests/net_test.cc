// Unit tests for the networking subsystem (src/net/): event loop basics,
// incremental frame parsing across arbitrary chunk boundaries, worker
// message delivery (FIFO per link), dead-peer detection, and outbound
// queue limits.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "net/event_loop.h"
#include "net/local_cluster.h"
#include "net/wire.h"
#include "net/worker.h"
#include "serde/frame.h"

namespace seep::net {
namespace {

using namespace std::chrono_literals;

// Polls `pred` until true or ~2s of wall clock elapse.
template <typename Pred>
bool WaitFor(Pred pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

// ---------------------------------------------------------------- EventLoop

TEST(EventLoopTest, PostRunsTasksOnLoopThread) {
  EventLoop loop;
  std::atomic<int> ran{0};
  std::atomic<bool> in_loop_thread{false};
  std::thread t([&] { loop.Run(); });
  loop.Post([&] {
    in_loop_thread = loop.InLoopThread();
    ++ran;
  });
  EXPECT_TRUE(WaitFor([&] { return ran.load() == 1; }));
  EXPECT_TRUE(in_loop_thread.load());
  EXPECT_FALSE(loop.InLoopThread());
  loop.Stop();
  t.join();
}

TEST(EventLoopTest, LoopThreadIdPublicationIsRaceFree) {
  // Regression for the loop_thread_ data race: Run() publishes the loop's
  // thread id with a release store into an atomic, and InLoopThread reads
  // it with an acquire load, so callers may legitimately race loop
  // startup. A reader polls InLoopThread across Run()'s startup and
  // shutdown stores; the TSan CI job fails here if loop_thread_ regresses
  // to a plain member.
  for (int round = 0; round < 10; ++round) {
    EventLoop loop;
    std::atomic<bool> stop{false};
    std::thread reader([&] {
      while (!stop.load()) {
        loop.InLoopThread();
      }
    });
    std::thread t([&] { loop.Run(); });
    std::atomic<bool> ran{false};
    loop.Post([&] { ran = true; });
    EXPECT_TRUE(WaitFor([&] { return ran.load(); }));
    EXPECT_FALSE(loop.InLoopThread());
    loop.Stop();
    t.join();
    stop = true;
    reader.join();
  }
}

TEST(EventLoopTest, TimersFireInDeadlineOrder) {
  EventLoop loop;
  sync::Mutex mu;
  std::vector<int> order;
  std::thread t([&] { loop.Run(); });
  loop.Post([&] {
    loop.AddTimer(30ms, [&] {
      sync::MutexLock lock(&mu);
      order.push_back(2);
    });
    loop.AddTimer(5ms, [&] {
      sync::MutexLock lock(&mu);
      order.push_back(1);
    });
  });
  EXPECT_TRUE(WaitFor([&] {
    sync::MutexLock lock(&mu);
    return order.size() == 2;
  }));
  loop.Stop();
  t.join();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoopTest, TimerFiresOnlyAfterItsDelay) {
  EventLoop loop;
  std::atomic<bool> fired{false};
  std::thread t([&] { loop.Run(); });
  const auto start = EventLoop::Clock::now();
  std::atomic<int64_t> waited_ms{0};
  loop.Post([&] {
    loop.AddTimer(50ms, [&] {
      waited_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      EventLoop::Clock::now() - start)
                      .count();
      fired = true;
    });
  });
  EXPECT_TRUE(WaitFor([&] { return fired.load(); }));
  EXPECT_GE(waited_ms.load(), 50);
  loop.Stop();
  t.join();
}

// -------------------------------------------------------------- FrameReader

std::vector<uint8_t> FrameOf(const Message& msg) { return EncodeMessage(msg); }

TEST(FrameReaderTest, ReassemblesAcrossEveryChunkBoundary) {
  Message a;
  a.type = MessageType::kBatch;
  a.from_vm = 1;
  a.to_vm = 2;
  a.body = {10, 20, 30};
  Message b;
  b.type = MessageType::kControl;
  b.from_vm = 2;
  b.to_vm = 1;
  b.ship_id = 77;
  b.body = std::vector<uint8_t>(300, 0x42);  // multi-byte length varints

  std::vector<uint8_t> stream = FrameOf(a);
  const std::vector<uint8_t> fb = FrameOf(b);
  stream.insert(stream.end(), fb.begin(), fb.end());

  // Split the two-frame stream at every possible byte boundary; the reader
  // must produce exactly the two payloads regardless of chunking.
  for (size_t split = 0; split <= stream.size(); ++split) {
    FrameReader reader;
    std::vector<std::vector<uint8_t>> payloads;
    ASSERT_TRUE(reader.Consume(stream.data(), split, &payloads).ok());
    ASSERT_TRUE(reader
                    .Consume(stream.data() + split, stream.size() - split,
                             &payloads)
                    .ok());
    ASSERT_EQ(payloads.size(), 2u) << "split at " << split;
    auto da = DecodeMessage(payloads[0]);
    auto db = DecodeMessage(payloads[1]);
    ASSERT_TRUE(da.ok());
    ASSERT_TRUE(db.ok());
    EXPECT_EQ(da.value().body, a.body);
    EXPECT_EQ(db.value().ship_id, b.ship_id);
    EXPECT_EQ(db.value().body, b.body);
    EXPECT_EQ(reader.pending_bytes(), 0u);
  }
}

TEST(FrameReaderTest, ByteByByteFeed) {
  Message m;
  m.type = MessageType::kCheckpointChunk;
  m.from_vm = 3;
  m.to_vm = 4;
  m.body = {9, 8, 7, 6, 5};
  const std::vector<uint8_t> stream = FrameOf(m);
  FrameReader reader;
  std::vector<std::vector<uint8_t>> payloads;
  for (uint8_t byte : stream) {
    ASSERT_TRUE(reader.Consume(&byte, 1, &payloads).ok());
  }
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(DecodeMessage(payloads[0]).value().body, m.body);
}

TEST(WireTest, OnlyKnownMessageTypesDecode) {
  Message m;
  m.from_vm = 1;
  m.to_vm = 2;
  m.body = {1, 2, 3};
  // The envelope's first byte is the type; 3 and 4 are retired.
  for (int type = 0; type < 256; ++type) {
    m.type = static_cast<MessageType>(type);
    auto payload = serde::UnframePayload(EncodeMessage(m));
    ASSERT_TRUE(payload.ok());
    const bool known = type == 1 || type == 2 || type == 5 || type == 6;
    EXPECT_EQ(DecodeMessage(payload.value()).ok(), known) << "type " << type;
  }
}

TEST(FrameReaderTest, CorruptPayloadIsStickyError) {
  Message m;
  m.body = {1, 2, 3, 4};
  std::vector<uint8_t> stream = FrameOf(m);
  stream.back() ^= 0x01;
  FrameReader reader;
  std::vector<std::vector<uint8_t>> payloads;
  EXPECT_FALSE(reader.Consume(stream.data(), stream.size(), &payloads).ok());
  EXPECT_TRUE(payloads.empty());
}

TEST(FrameReaderTest, OversizedDeclaredLengthRejectedEarly) {
  // A header claiming a payload beyond the reader's cap must be rejected
  // from the header alone, before any payload bytes arrive.
  std::vector<uint8_t> header(serde::kFrameHeaderBytes, 0);
  header[3] = 0xFF;  // declared length ~4 GiB
  FrameReader reader(/*max_payload=*/1 << 20);
  std::vector<std::vector<uint8_t>> payloads;
  EXPECT_FALSE(reader.Consume(header.data(), header.size(), &payloads).ok());
}

// ------------------------------------------------------------ LocalCluster

struct Inbox {
  sync::Mutex mu;
  sync::CondVar cv;
  std::vector<Message> messages SEEP_GUARDED_BY(mu);

  void Push(Message msg) {
    sync::MutexLock lock(&mu);
    messages.push_back(std::move(msg));
    cv.NotifyAll();
  }
  size_t Size() {
    sync::MutexLock lock(&mu);
    return messages.size();
  }
  bool WaitForCount(size_t n) {
    sync::MutexLock lock(&mu);
    return cv.WaitFor(&mu, 2s, [&] {
      mu.AssertHeld();
      return messages.size() >= n;
    });
  }
};

Message MakeMsg(VmId from, VmId to, uint64_t tag) {
  Message msg;
  msg.type = MessageType::kControl;
  msg.from_vm = from;
  msg.to_vm = to;
  msg.ship_id = tag;
  msg.body = std::vector<uint8_t>(64, static_cast<uint8_t>(tag));
  return msg;
}

TEST(LocalClusterTest, DeliversMessagesInFifoOrderPerLink) {
  LocalCluster cluster;
  Inbox inbox;
  ASSERT_TRUE(cluster.StartWorker(1, nullptr).ok());
  ASSERT_TRUE(
      cluster.StartWorker(2, [&](Message m) { inbox.Push(std::move(m)); })
          .ok());

  constexpr uint64_t kCount = 200;
  for (uint64_t i = 0; i < kCount; ++i) {
    ASSERT_NE(cluster.Post(1, 2, MakeMsg(1, 2, i)), SendStatus::kClosed);
  }
  ASSERT_TRUE(inbox.WaitForCount(kCount));
  sync::MutexLock lock(&inbox.mu);
  for (uint64_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(inbox.messages[i].ship_id, i) << "reordered at " << i;
    EXPECT_EQ(inbox.messages[i].from_vm, 1u);
  }
}

TEST(LocalClusterTest, BidirectionalTraffic) {
  LocalCluster cluster;
  Inbox at1, at2;
  ASSERT_TRUE(
      cluster.StartWorker(1, [&](Message m) { at1.Push(std::move(m)); })
          .ok());
  ASSERT_TRUE(
      cluster.StartWorker(2, [&](Message m) { at2.Push(std::move(m)); })
          .ok());
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_NE(cluster.Post(1, 2, MakeMsg(1, 2, i)), SendStatus::kClosed);
    ASSERT_NE(cluster.Post(2, 1, MakeMsg(2, 1, i)), SendStatus::kClosed);
  }
  EXPECT_TRUE(at2.WaitForCount(50));
  EXPECT_TRUE(at1.WaitForCount(50));
}

TEST(LocalClusterTest, SenderMayStartBeforeReceiver) {
  // Frames posted before the peer registers are held and flushed once the
  // reconnect backoff finds the listener.
  LocalCluster cluster;
  Inbox inbox;
  ASSERT_TRUE(cluster.StartWorker(1, nullptr).ok());
  ASSERT_NE(cluster.Post(1, 2, MakeMsg(1, 2, 1)), SendStatus::kClosed);
  ASSERT_NE(cluster.Post(1, 2, MakeMsg(1, 2, 2)), SendStatus::kClosed);
  ASSERT_TRUE(
      cluster.StartWorker(2, [&](Message m) { inbox.Push(std::move(m)); })
          .ok());
  ASSERT_TRUE(inbox.WaitForCount(2));
  sync::MutexLock lock(&inbox.mu);
  EXPECT_EQ(inbox.messages[0].ship_id, 1u);
  EXPECT_EQ(inbox.messages[1].ship_id, 2u);
}

TEST(LocalClusterTest, KilledWorkerLooksLikeDeadPeer) {
  LocalCluster cluster;
  Inbox inbox;
  std::atomic<uint64_t> disconnects_at_1{0};
  ASSERT_TRUE(cluster
                  .StartWorker(
                      1, [&](Message m) { inbox.Push(std::move(m)); },
                      [&](VmId) { ++disconnects_at_1; })
                  .ok());
  ASSERT_TRUE(
      cluster.StartWorker(2, [&](Message m) { inbox.Push(std::move(m)); })
          .ok());

  // Establish the 1->2 link, then kill 2 mid-stream.
  ASSERT_NE(cluster.Post(1, 2, MakeMsg(1, 2, 0)), SendStatus::kClosed);
  ASSERT_TRUE(inbox.WaitForCount(1));
  cluster.KillWorker(2);
  EXPECT_FALSE(cluster.IsAttached(2));

  // The sender observes the dead peer: its outbound link dies. Keep
  // posting so the link's death is exercised, not just idle-detected.
  EXPECT_TRUE(WaitFor([&] {
    // The peer is dead; this probe is allowed (expected) to fail.
    // seep-ok: unchecked-status -- probing a dead link
    (void)cluster.Post(1, 2, MakeMsg(1, 2, 99));
    return disconnects_at_1.load() >= 1;
  }));

  // Posting from the dead worker reports closed.
  EXPECT_EQ(cluster.Post(2, 1, MakeMsg(2, 1, 7)), SendStatus::kClosed);
}

TEST(LocalClusterTest, OutboundOverflowDropsAndReports) {
  WorkerOptions options;
  options.queue_limits.pressure_bytes = 2 * 1024;
  options.queue_limits.max_bytes = 8 * 1024;
  LocalCluster cluster(options);
  ASSERT_TRUE(cluster.StartWorker(1, nullptr).ok());
  // No worker 2 exists: frames pile up in the pending queue until the hard
  // cap drops them.
  bool saw_pressure = false;
  bool saw_overflow = false;
  for (int i = 0; i < 200; ++i) {
    const SendStatus st = cluster.Post(1, 2, MakeMsg(1, 2, 1));
    saw_pressure |= st == SendStatus::kPressured;
    saw_overflow |= st == SendStatus::kOverflow;
  }
  EXPECT_TRUE(saw_pressure);
  EXPECT_TRUE(saw_overflow);
  EXPECT_TRUE(WaitFor([&] { return cluster.TotalStats().frames_dropped > 0; }));
}

TEST(LocalClusterTest, HelloAttributesInboundDisconnect) {
  LocalCluster cluster;
  std::atomic<uint64_t> disconnect_peer{kInvalidVm};
  ASSERT_TRUE(cluster
                  .StartWorker(
                      2, nullptr,
                      [&](VmId peer) { disconnect_peer = peer; })
                  .ok());
  ASSERT_TRUE(cluster.StartWorker(7, nullptr).ok());
  // Establish 7 -> 2 (hello carries from_vm=7), then kill the sender.
  ASSERT_NE(cluster.Post(7, 2, MakeMsg(7, 2, 1)), SendStatus::kClosed);
  EXPECT_TRUE(WaitFor(
      [&] { return cluster.TotalStats().messages_delivered >= 1; }));
  cluster.KillWorker(7);
  EXPECT_TRUE(WaitFor([&] { return disconnect_peer.load() == 7u; }));
}

}  // namespace
}  // namespace seep::net
