// Unit tests for the networking subsystem (src/net/): incremental frame
// parsing across arbitrary chunk boundaries, worker message delivery (FIFO
// per link), dead-peer detection, a fresh link after a peer's death, a
// poisoned inbound stream, outbound queue limits with the kernel's socket
// buffers full, and what a killed worker leaves on the loop it shares.
// Nothing here starts a thread: each test drives the sockets itself through
// bounded poll loops.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <vector>

#include "net/event_loop.h"
#include "net/local_cluster.h"
#include "net/socket.h"
#include "net/wire.h"
#include "net/worker.h"
#include "serde/frame.h"

namespace seep::net {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

// Polls `cluster` in 1 ms turns until `pred` holds or `limit` of wall clock
// elapses.
template <typename Pred>
bool PollUntil(LocalCluster& cluster, Pred pred,
               std::chrono::milliseconds limit = 2000ms) {
  const auto deadline = Clock::now() + limit;
  while (!pred()) {
    if (Clock::now() >= deadline) return false;
    cluster.Poll(1ms);
  }
  return true;
}

// Polls `cluster` in 1 ms turns for `span` of wall clock.
void PollFor(LocalCluster& cluster, std::chrono::milliseconds span) {
  const auto until = Clock::now() + span;
  while (Clock::now() < until) cluster.Poll(1ms);
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
  b.type = MessageType::kBatch;
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
  m.type = MessageType::kCheckpoint;
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
  // The envelope's first byte is the type; 3, 4 and 5 are retired.
  for (int type = 0; type < 256; ++type) {
    m.type = static_cast<MessageType>(type);
    auto payload = serde::UnframePayload(EncodeMessage(m));
    ASSERT_TRUE(payload.ok());
    const bool known = type == 1 || type == 2 || type == 6;
    EXPECT_EQ(DecodeMessage(payload.value()).ok(), known) << "type " << type;
  }
}

// A checkpoint envelope whose ship_id takes a 3-byte varint, then a 40-byte
// body: type (1) + from_vm (4) + to_vm (4) + ship_id (3) = 12 envelope
// bytes.
constexpr size_t kSweepEnvelopeBytes = 12;

Message SweepMessage() {
  Message m;
  m.type = MessageType::kCheckpoint;
  m.from_vm = 0x01020304;
  m.to_vm = 0x0A0B0C0D;
  m.ship_id = (uint64_t{1} << 14) + 77;
  for (uint8_t i = 0; i < 40; ++i) m.body.push_back(uint8_t(i * 7 + 1));
  return m;
}

TEST(WireSweepTest, PrefixesInsideTheEnvelopeAreCorruption) {
  const Message m = SweepMessage();
  auto framed = serde::UnframePayload(EncodeMessage(m));
  ASSERT_TRUE(framed.ok());
  const std::vector<uint8_t>& payload = framed.value();
  ASSERT_EQ(payload.size(), kSweepEnvelopeBytes + m.body.size());
  for (size_t len = 0; len < payload.size(); ++len) {
    const std::vector<uint8_t> cut(payload.begin(), payload.begin() + len);
    auto back = DecodeMessage(cut);
    if (len < kSweepEnvelopeBytes) {
      ASSERT_FALSE(back.ok()) << "prefix of " << len << " bytes accepted";
      EXPECT_TRUE(back.status().IsCorruption());
      continue;
    }
    // The body is whatever follows the envelope, so a longer prefix decodes
    // to the same envelope with the body cut to match.
    ASSERT_TRUE(back.ok()) << "prefix of " << len << " bytes rejected";
    EXPECT_EQ(back.value().type, m.type);
    EXPECT_EQ(back.value().from_vm, m.from_vm);
    EXPECT_EQ(back.value().to_vm, m.to_vm);
    EXPECT_EQ(back.value().ship_id, m.ship_id);
    EXPECT_EQ(back.value().body,
              std::vector<uint8_t>(m.body.begin(),
                                   m.body.begin() +
                                       (len - kSweepEnvelopeBytes)));
  }
}

TEST(WireSweepTest, EverySingleBitFlipDecodesOrIsCorruption) {
  auto framed = serde::UnframePayload(EncodeMessage(SweepMessage()));
  ASSERT_TRUE(framed.ok());
  const std::vector<uint8_t> payload = framed.value();
  size_t rejected = 0;
  for (size_t bit = 0; bit < payload.size() * 8; ++bit) {
    std::vector<uint8_t> damaged = payload;
    damaged[bit / 8] ^= uint8_t(1u << (bit % 8));
    auto back = DecodeMessage(damaged);
    if (!back.ok()) {
      EXPECT_TRUE(back.status().IsCorruption()) << "bit " << bit;
      ++rejected;
      continue;
    }
    // The envelope is at least 10 bytes (a 1-byte ship_id); the body is
    // the rest.
    EXPECT_LE(back.value().body.size() + 10, payload.size()) << "bit " << bit;
  }
  // Flips of the type byte name retired or unknown types.
  EXPECT_GT(rejected, 0u);
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

Message MakeMsg(VmId from, VmId to, uint64_t tag, size_t body_bytes = 64) {
  Message msg;
  msg.type = MessageType::kBatch;
  msg.from_vm = from;
  msg.to_vm = to;
  msg.ship_id = tag;
  msg.body = std::vector<uint8_t>(body_bytes, static_cast<uint8_t>(tag));
  return msg;
}

TEST(LocalClusterTest, DeliversMessagesInFifoOrderPerLink) {
  LocalCluster cluster;
  std::vector<Message> inbox;
  ASSERT_TRUE(cluster.StartWorker(1, nullptr).ok());
  ASSERT_TRUE(cluster
                  .StartWorker(2,
                               [&](Message m) {
                                 inbox.push_back(std::move(m));
                               })
                  .ok());

  constexpr uint64_t kCount = 200;
  for (uint64_t i = 0; i < kCount; ++i) {
    ASSERT_NE(cluster.Post(1, 2, MakeMsg(1, 2, i)), SendStatus::kClosed);
  }
  ASSERT_TRUE(PollUntil(cluster, [&] { return inbox.size() >= kCount; }));
  for (uint64_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(inbox[i].ship_id, i) << "reordered at " << i;
    EXPECT_EQ(inbox[i].from_vm, 1u);
  }
}

TEST(LocalClusterTest, BidirectionalTraffic) {
  LocalCluster cluster;
  size_t at1 = 0, at2 = 0;
  ASSERT_TRUE(cluster.StartWorker(1, [&](Message) { ++at1; }).ok());
  ASSERT_TRUE(cluster.StartWorker(2, [&](Message) { ++at2; }).ok());
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_NE(cluster.Post(1, 2, MakeMsg(1, 2, i)), SendStatus::kClosed);
    ASSERT_NE(cluster.Post(2, 1, MakeMsg(2, 1, i)), SendStatus::kClosed);
  }
  EXPECT_TRUE(PollUntil(cluster, [&] { return at1 == 50 && at2 == 50; }));
}

TEST(LocalClusterTest, PostToAVmWithoutAWorkerIsClosed) {
  // A post to a VM with no worker is refused at once: nothing is held for
  // it and nothing is reported dropped, so a worker that starts there later
  // receives none of it.
  LocalCluster cluster;
  std::vector<Message> inbox;
  size_t dropped = 0;
  ASSERT_TRUE(cluster
                  .StartWorker(1, nullptr, nullptr,
                               [&](VmId, size_t frames) { dropped += frames; })
                  .ok());
  EXPECT_EQ(cluster.Post(1, 2, MakeMsg(1, 2, 1)), SendStatus::kClosed);
  EXPECT_EQ(cluster.Post(1, 2, MakeMsg(1, 2, 2)), SendStatus::kClosed);
  ASSERT_TRUE(cluster
                  .StartWorker(2,
                               [&](Message m) {
                                 inbox.push_back(std::move(m));
                               })
                  .ok());
  PollFor(cluster, 50ms);
  EXPECT_TRUE(inbox.empty());
  EXPECT_EQ(dropped, 0u);
}

TEST(LocalClusterTest, KilledWorkerLooksLikeDeadPeer) {
  LocalCluster cluster;
  size_t delivered = 0;
  uint64_t disconnects_at_1 = 0;
  ASSERT_TRUE(cluster
                  .StartWorker(
                      1, [&](Message) { ++delivered; },
                      [&](VmId) { ++disconnects_at_1; })
                  .ok());
  ASSERT_TRUE(cluster.StartWorker(2, [&](Message) { ++delivered; }).ok());

  // Establish the 1->2 link, then kill 2 mid-stream.
  ASSERT_NE(cluster.Post(1, 2, MakeMsg(1, 2, 0)), SendStatus::kClosed);
  ASSERT_TRUE(PollUntil(cluster, [&] { return delivered == 1; }));
  cluster.KillWorker(2);
  EXPECT_FALSE(cluster.IsAttached(2));

  // A post to the dead VM is refused at once, and the sender observes the
  // dead peer at its next poll: its outbound link dies.
  EXPECT_EQ(cluster.Post(1, 2, MakeMsg(1, 2, 99)), SendStatus::kClosed);
  EXPECT_TRUE(PollUntil(cluster, [&] { return disconnects_at_1 >= 1; }));

  // Posting from the dead worker reports closed.
  EXPECT_EQ(cluster.Post(2, 1, MakeMsg(2, 1, 7)), SendStatus::kClosed);
}

TEST(LocalClusterTest, NextPostAfterALinkDiedOpensAFreshOne) {
  // A dead link is not revived: its death is reported, and the next post
  // to a VM that has a worker again opens a fresh link at once.
  LocalCluster cluster;
  std::vector<uint64_t> tags_at_2;
  uint64_t disconnects_at_1 = 0;
  ASSERT_TRUE(cluster
                  .StartWorker(1, nullptr,
                               [&](VmId peer) {
                                 EXPECT_EQ(peer, 2u);
                                 ++disconnects_at_1;
                               })
                  .ok());
  auto start_2 = [&] {
    return cluster.StartWorker(
        2, [&](Message m) { tags_at_2.push_back(m.ship_id); });
  };
  ASSERT_TRUE(start_2().ok());
  ASSERT_EQ(cluster.Post(1, 2, MakeMsg(1, 2, 1)), SendStatus::kOk);
  ASSERT_TRUE(PollUntil(cluster, [&] { return tags_at_2.size() == 1; }));

  cluster.KillWorker(2);
  ASSERT_TRUE(PollUntil(cluster, [&] { return disconnects_at_1 == 1; }));
  ASSERT_TRUE(start_2().ok());
  ASSERT_EQ(cluster.Post(1, 2, MakeMsg(1, 2, 2)), SendStatus::kOk);
  ASSERT_TRUE(
      PollUntil(cluster, [&] { return tags_at_2.size() == 2; }, 100ms));
  EXPECT_EQ(tags_at_2[1], 2u);
  EXPECT_EQ(disconnects_at_1, 1u);
}

TEST(LocalClusterTest, FullKernelBuffersQueueThenOverflowInOrder) {
  // A live receiver that is not polled: once the kernel's socket buffers
  // are full, what the socket does not take queues at the sender, which
  // reports pressure past the watermark and drops at the cap. Polling then
  // drains the link, and every accepted frame arrives in order.
  LocalCluster cluster;
  std::vector<uint64_t> tags;
  size_t drop_callbacks = 0, dropped = 0;
  ASSERT_TRUE(cluster
                  .StartWorker(1, nullptr, nullptr,
                               [&](VmId peer, size_t frames) {
                                 EXPECT_EQ(peer, 2u);
                                 ++drop_callbacks;
                                 dropped += frames;
                               })
                  .ok());
  ASSERT_TRUE(cluster
                  .StartWorker(2,
                               [&](Message m) { tags.push_back(m.ship_id); })
                  .ok());
  ASSERT_NE(cluster.Post(1, 2, MakeMsg(1, 2, 0)), SendStatus::kClosed);
  ASSERT_TRUE(PollUntil(cluster, [&] { return tags.size() == 1; }));

  Message big = MakeMsg(1, 2, 0, /*body_bytes=*/1 << 20);
  const size_t frame_bytes = EncodeMessage(big).size();
  std::vector<SendStatus> statuses;
  size_t accepted_bytes = 0, overflows = 0;
  for (uint64_t tag = 1; overflows < 4 && tag < 200; ++tag) {
    big.ship_id = tag;
    const SendStatus st = cluster.Post(1, 2, big);
    statuses.push_back(st);
    if (st == SendStatus::kOverflow) {
      // The kernel holds at most a few MiB, so the cap is what stops us.
      if (overflows++ == 0) {
        EXPECT_GT(accepted_bytes + frame_bytes, kMaxQueuedBytes);
      }
    } else {
      accepted_bytes += frame_bytes;
    }
  }
  ASSERT_EQ(overflows, 4u);
  // kOk, then kPressured past the watermark, then only kOverflow.
  EXPECT_TRUE(std::is_sorted(
      statuses.begin(), statuses.end(), [](SendStatus a, SendStatus b) {
        return static_cast<int>(a) < static_cast<int>(b);
      }));
  EXPECT_EQ(statuses.front(), SendStatus::kOk);
  EXPECT_NE(std::find(statuses.begin(), statuses.end(),
                      SendStatus::kPressured),
            statuses.end());
  EXPECT_EQ(drop_callbacks, 4u);
  EXPECT_EQ(dropped, 4u);
  EXPECT_EQ(tags.size(), 1u);  // nothing moves until the loop is polled

  const size_t accepted = statuses.size() - overflows;
  ASSERT_TRUE(PollUntil(
      cluster, [&] { return tags.size() == 1 + accepted; }, 20000ms));
  for (size_t i = 0; i < tags.size(); ++i) {
    EXPECT_EQ(tags[i], i) << "reordered at " << i;
  }
  EXPECT_EQ(dropped, 4u);  // draining the link dropped nothing more
}

TEST(LocalClusterTest, HelloAttributesInboundDisconnect) {
  LocalCluster cluster;
  size_t delivered = 0;
  VmId disconnect_peer = kInvalidVm;
  ASSERT_TRUE(cluster
                  .StartWorker(
                      2, [&](Message) { ++delivered; },
                      [&](VmId peer) { disconnect_peer = peer; })
                  .ok());
  ASSERT_TRUE(cluster.StartWorker(7, nullptr).ok());
  // Establish 7 -> 2 (hello carries from_vm=7), then kill the sender.
  ASSERT_NE(cluster.Post(7, 2, MakeMsg(7, 2, 1)), SendStatus::kClosed);
  EXPECT_TRUE(PollUntil(cluster, [&] { return delivered >= 1; }));
  cluster.KillWorker(7);
  EXPECT_TRUE(PollUntil(cluster, [&] { return disconnect_peer == 7u; }));
}

TEST(LocalClusterTest, KilledWorkerLeavesNothingToRunOnTheSharedLoop) {
  // A link that dies on a direct write, outside any poll, waits in its
  // worker's closed list for the next poll to free it. A worker killed
  // before that poll takes the connection with it: nothing of the worker
  // is left on the shared loop to run.
  LocalCluster cluster;
  size_t delivered_at_2 = 0;
  uint64_t callbacks_at_1 = 0;
  ASSERT_TRUE(cluster
                  .StartWorker(
                      1, nullptr, [&](VmId) { ++callbacks_at_1; },
                      [&](VmId, size_t) { ++callbacks_at_1; })
                  .ok());
  ASSERT_TRUE(cluster.StartWorker(2, [&](Message) { ++delivered_at_2; }).ok());
  ASSERT_NE(cluster.Post(1, 2, MakeMsg(1, 2, 0)), SendStatus::kClosed);
  ASSERT_TRUE(PollUntil(cluster, [&] { return delivered_at_2 == 1; }));

  // VM 2 dies and starts again before anything polls, so worker 1 still
  // holds the dead link and finds it dead on a direct write.
  cluster.KillWorker(2);
  ASSERT_TRUE(cluster.StartWorker(2, nullptr).ok());
  for (int i = 0; i < 100 && callbacks_at_1 == 0; ++i) {
    // seep-ok: unchecked-status -- probing a dead link
    (void)cluster.Post(1, 2, MakeMsg(1, 2, 1));
  }
  ASSERT_GT(callbacks_at_1, 0u);
  const uint64_t seen = callbacks_at_1;
  cluster.KillWorker(1);

  PollFor(cluster, 50ms);
  EXPECT_EQ(callbacks_at_1, seen);
}

// ------------------------------------------------------------------- Worker

// A blocking loopback connection to `port`, bypassing Worker: the test
// writes raw bytes on it.
ScopedFd RawConnect(uint16_t port) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    fd.Reset();
  }
  return fd;
}

bool WriteAll(int fd, const std::vector<uint8_t>& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

// The frames a peer's worker would write on a fresh link: its hello, then
// `msg`.
std::vector<uint8_t> HelloThen(const Message& msg) {
  Message hello;
  hello.type = MessageType::kHello;
  hello.from_vm = msg.from_vm;
  hello.to_vm = msg.to_vm;
  std::vector<uint8_t> bytes = EncodeMessage(hello);
  const std::vector<uint8_t> frame = EncodeMessage(msg);
  bytes.insert(bytes.end(), frame.begin(), frame.end());
  return bytes;
}

TEST(WorkerTest, PoisonedInboundStreamClosesOnlyThatLink) {
  // A frame that fails its crc32c poisons the stream it arrived on: the
  // worker closes that connection inside the connection's own event
  // handling, reports the peer its hello named, and frees it only once the
  // poll has returned (FreeClosed). Another link into the same worker
  // keeps delivering.
  EventLoop loop;
  Worker worker(1, &loop);
  std::vector<Message> inbox;
  std::vector<VmId> disconnects;
  worker.set_on_message([&](Message m) { inbox.push_back(std::move(m)); });
  worker.set_on_peer_disconnect(
      [&](VmId peer) { disconnects.push_back(peer); });
  ASSERT_TRUE(worker.Start().ok());
  auto poll_until = [&](auto pred) {
    const auto deadline = Clock::now() + 2000ms;
    while (!pred()) {
      if (Clock::now() >= deadline) return false;
      loop.Poll(1ms);
      worker.FreeClosed();
    }
    return true;
  };

  ScopedFd poisoned = RawConnect(worker.port());
  ASSERT_TRUE(poisoned.valid());
  std::vector<uint8_t> bytes = HelloThen(MakeMsg(7, 1, 1));
  bytes.back() ^= 0x01;  // the message's payload no longer matches its crc
  ASSERT_TRUE(WriteAll(poisoned.get(), bytes));
  ASSERT_TRUE(poll_until([&] { return !disconnects.empty(); }));
  EXPECT_EQ(disconnects, std::vector<VmId>{7});
  EXPECT_TRUE(inbox.empty());
  // The worker's end is closed: the raw socket reads end of stream.
  uint8_t byte;
  EXPECT_EQ(::recv(poisoned.get(), &byte, 1, MSG_DONTWAIT), 0);

  ScopedFd healthy = RawConnect(worker.port());
  ASSERT_TRUE(healthy.valid());
  ASSERT_TRUE(WriteAll(healthy.get(), HelloThen(MakeMsg(8, 1, 2))));
  ASSERT_TRUE(poll_until([&] { return inbox.size() == 1; }));
  EXPECT_EQ(inbox[0].from_vm, 8u);
  EXPECT_EQ(inbox[0].ship_id, 2u);
  EXPECT_EQ(disconnects.size(), 1u);
}

}  // namespace
}  // namespace seep::net
