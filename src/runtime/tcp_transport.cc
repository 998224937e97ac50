#include "runtime/tcp_transport.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/logging.h"
#include "net/local_cluster.h"
#include "net/wire.h"
#include "runtime/cluster.h"
#include "runtime/operator_instance.h"
#include "serde/decoder.h"
#include "serde/encoder.h"

namespace seep::runtime {
namespace {

// Sim interval between inbox pumps while traffic is in flight.
constexpr SimTime kPumpInterval = MillisToSim(1);
// Longest wall-clock wait per pump for in-flight messages to land before
// sim time advances past them: it keeps delivery within one pump interval
// of simulated time without letting a stalled link wedge the simulation.
constexpr std::chrono::microseconds kPumpWait{200};

// A post that put nothing in flight: the frame was dropped at the sender's
// queue cap, or an end of the link is not attached.
bool Lost(net::SendStatus st) {
  return st == net::SendStatus::kOverflow || st == net::SendStatus::kClosed;
}

}  // namespace

/// The transport's state, all of it on the driver thread: the sockets'
/// callbacks run inside the pump's poll. Invariant: `in_flight[{from, to}]`
/// counts the frames `from` posted to `to` that the net layer accepted and
/// that have neither been delivered nor been reported dropped. Detaching a
/// VM writes off every link to or from it (traffic to a dead VM is dead by
/// definition, and frames its worker had queued died with the worker), and
/// decrements are clamped, so the total returns to zero once nothing live
/// is in flight: the pump's bounded wait never waits on a lost frame, and
/// the pump stops.
///
/// The links run with net's fixed limits: SendBatch reports kPressured
/// above a worker's 4 MiB of queued outbound bytes (what the kernel's
/// socket buffers did not take), frames beyond its 64 MiB cap are dropped
/// (replay recovers them, exactly as after a crash), and a receiver rejects
/// any frame declaring more than serde::kDefaultMaxFramePayload (64 MiB).
struct TcpTransport::Impl {
  net::LocalCluster cluster;

  // Messages the last poll delivered, in arrival order, waiting for the
  // pump to dispatch them.
  std::deque<net::Message> inbox;
  std::map<std::pair<VmId, VmId>, uint64_t> in_flight;
  uint64_t total_in_flight = 0;

  // Checkpoint parcels in flight, keyed by the ship_id every chunk carries:
  // the endpoints, the chunk stream as sent and the sender's arrival
  // callback.
  struct ShipEntry {
    VmId from = kInvalidVm;
    VmId to = kInvalidVm;
    TcpChunkStream stream;
    ArrivalFn on_arrival;
  };
  std::unordered_map<uint64_t, ShipEntry> ships;
  uint64_t next_ship_id = 0;

  uint64_t disconnects = 0;

  void DecInFlight(VmId from, VmId to, uint64_t n) {
    auto it = in_flight.find({from, to});
    if (it == in_flight.end()) return;
    const uint64_t dec = std::min(it->second, n);
    it->second -= dec;
    total_in_flight -= dec;
  }

  /// Writes off every link to or from `vm`.
  void WriteOff(VmId vm) {
    for (auto it = in_flight.begin(); it != in_flight.end();) {
      if (it->first.first == vm || it->first.second == vm) {
        total_in_flight -= it->second;
        it = in_flight.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Posts `msg` on `from`'s worker with in-flight accounting. A link with
  /// a detached end reports kClosed; a frame dropped at the queue cap
  /// leaves flight again through the drop callback.
  net::SendStatus Post(VmId from, VmId to, const net::Message& msg) {
    if (!cluster.IsAttached(from) || !cluster.IsAttached(to)) {
      return net::SendStatus::kClosed;
    }
    ++in_flight[{from, to}];
    ++total_in_flight;
    return cluster.Post(from, to, msg);
  }
};

CkptChunkHeader ChunkStreamHeader(const SerializedCkptFrame& frame,
                                  InstanceId receiver, size_t chunk_bytes) {
  const size_t total = frame.frame.size();
  CkptChunkHeader header;
  header.owner = frame.owner;
  header.owner_op = frame.owner_op;
  header.holder = receiver;
  header.seq = frame.seq;
  header.count = static_cast<uint32_t>((total + chunk_bytes - 1) / chunk_bytes);
  header.frame_bytes = total;
  header.raw_bytes = frame.raw_bytes;
  header.compressed = frame.compressed;
  return header;
}

bool ReceiveChunkMessage(Cluster* cluster, TcpChunkStream* stream,
                         const std::vector<uint8_t>& body,
                         const ArrivalFn& on_arrival) {
  const CkptChunkHeader& want = stream->header;
  CkptChunkHeader next = want;
  next.index = stream->next_index;
  const size_t begin = static_cast<size_t>(next.index) * stream->chunk_bytes;
  const size_t len =
      std::min<size_t>(stream->chunk_bytes, want.frame_bytes - begin);
  serde::Decoder dec(body);
  auto header = DecodeChunkHeader(&dec);
  const size_t n = body.size() - dec.position();
  if (!header.ok() || header.value() != next || n != len) {
    // The body passed the net layer's crc32c, so this is encode/decode
    // divergence, not line noise: drop the parcel loudly.
    ++cluster->metrics()->ckpt_decode_failures;
    SEEP_LOG(kWarn, cluster->Now())
        << "dropping checkpoint parcel of instance " << want.owner
        << " seq " << want.seq << ": chunk " << next.index
        << " is not the one its stream expects";
    cluster->ckpt_reassembler()->Forget(want);
    return true;
  }
  ++cluster->metrics()->ckpt_chunks;
  if (auto* audit = cluster->audit()) {
    audit->OnCheckpointChunk(next.owner, next.holder, next.seq, next.index,
                             next.count, n, next.frame_bytes);
  }
  auto frame = cluster->ckpt_reassembler()->OnChunk(
      next, body.data() + dec.position(), n);
  if (frame.has_value()) {
    // The frame is whole; the stream header says which checkpoint it is.
    SerializedCkptFrame whole;
    whole.frame = std::move(*frame);
    whole.raw_bytes = next.raw_bytes;
    whole.compressed = next.compressed;
    whole.owner = next.owner;
    whole.owner_op = next.owner_op;
    whole.seq = next.seq;
    ReceiveCheckpointFrame(cluster, std::move(whole), on_arrival);
  }
  return ++stream->next_index == want.count;
}

TcpTransport::TcpTransport(Cluster* cluster)
    : cluster_(cluster), impl_(std::make_unique<Impl>()) {}

TcpTransport::~TcpTransport() = default;

uint64_t TcpTransport::disconnects_observed() const {
  return impl_->disconnects;
}

uint64_t TcpTransport::messages_delivered() const {
  return impl_->cluster.TotalStats().messages_delivered;
}

uint64_t TcpTransport::frames_dropped() const {
  return impl_->cluster.TotalStats().frames_dropped;
}

size_t TcpTransport::parcels_in_flight() const {
  return impl_->ships.size();
}

uint64_t TcpTransport::frames_in_flight() const {
  return impl_->total_in_flight;
}

void TcpTransport::AttachVm(VmId vm) {
  // Mirror into the sim network so its attachment directory (and any code
  // consulting IsAttached) stays coherent; no sim traffic flows through it.
  cluster_->network()->Attach(vm);
  // The callbacks run inside the pump's poll. They only account and queue:
  // dispatch waits until the poll has returned.
  Impl* impl = impl_.get();
  const Status started = impl->cluster.StartWorker(
      vm,
      /*on_message=*/
      [impl, vm](net::Message msg) {
        impl->DecInFlight(msg.from_vm, vm, 1);
        impl->inbox.push_back(std::move(msg));
      },
      /*on_peer_disconnect=*/
      [impl](VmId) {
        ++impl->disconnects;
      },
      /*on_frames_dropped=*/
      [impl, vm](VmId peer, size_t n) {
        impl->DecInFlight(vm, peer, n);
      });
  SEEP_CHECK(started.ok());
}

void TcpTransport::DetachVm(VmId vm) {
  cluster_->network()->Detach(vm);
  // Kill first, then write off both directions: frames queued in this VM's
  // worker or kernel buffers, and frames on their way to it, die
  // unobserved, and the pump must not wait for them.
  impl_->cluster.KillWorker(vm);
  impl_->WriteOff(vm);
  // Parcels to the dead VM never arrive (sim parity: sim::Network drops
  // deliveries to detached endpoints), and parcels from it lost their
  // unsent chunks with its worker. Either way the partial chunk stream at
  // the receiver goes too.
  for (auto it = impl_->ships.begin(); it != impl_->ships.end();) {
    if (it->second.from == vm || it->second.to == vm) {
      cluster_->ckpt_reassembler()->Forget(it->second.stream.header);
      it = impl_->ships.erase(it);
    } else {
      ++it;
    }
  }
}

SendPressure TcpTransport::SendBatch(OperatorInstance* from, InstanceId to,
                                     core::TupleBatch batch) {
  batch.from = from->id();
  const OperatorInstance* dest = cluster_->membership()->GetInstance(to);
  if (dest == nullptr) return SendPressure::kNone;

  net::Message msg;
  msg.type = net::MessageType::kBatch;
  msg.from_vm = from->vm();
  msg.to_vm = dest->vm();
  serde::Encoder enc;
  enc.AppendVarint64(to);  // destination instance, then the batch itself
  batch.Encode(&enc);
  msg.body = std::move(enc).TakeBuffer();
  const net::SendStatus st = impl_->Post(from->vm(), dest->vm(), msg);
  if (!Lost(st)) SchedulePump();
  return st == net::SendStatus::kPressured ? SendPressure::kPressured
                                           : SendPressure::kNone;
}

void TcpTransport::ShipCheckpoint(VmId from, VmId to,
                                  CheckpointParcel parcel,
                                  ArrivalFn on_arrival) {
  SerializedCkptFrame frame;
  if (auto* ckpt = std::get_if<core::StateCheckpoint>(&parcel.body)) {
    frame = SerializeCheckpoint(*ckpt, kCompressCheckpoints);
  } else {
    frame = std::move(std::get<SerializedCkptFrame>(parcel.body));
  }
  TcpChunkStream stream;
  stream.chunk_bytes =
      std::max<size_t>(1, cluster_->config().checkpoint_chunk_bytes);
  stream.header = ChunkStreamHeader(frame, parcel.receiver, stream.chunk_bytes);
  CkptChunkHeader header = stream.header;
  const uint64_t id = ++impl_->next_ship_id;
  impl_->ships.emplace(
      id, Impl::ShipEntry{from, to, stream, std::move(on_arrival)});

  // One kCheckpointChunk message per chunk, all carrying the parcel's
  // ship_id. The per-link TCP stream is FIFO, so chunks arrive in index
  // order at the receiver's pump, but data batches posted between them
  // interleave freely.
  const size_t total = frame.frame.size();
  net::Message msg;
  msg.type = net::MessageType::kCheckpointChunk;
  msg.from_vm = from;
  msg.to_vm = to;
  msg.ship_id = id;
  for (uint32_t i = 0; i < header.count; ++i) {
    header.index = i;
    const size_t begin = static_cast<size_t>(i) * stream.chunk_bytes;
    const size_t len = std::min(stream.chunk_bytes, total - begin);
    serde::Encoder enc;
    EncodeChunkHeader(header, &enc);
    enc.Reserve(len);
    enc.AppendRaw(frame.frame.data() + begin, len);
    msg.body = std::move(enc).TakeBuffer();
    if (Lost(impl_->Post(from, to, msg))) {
      // A lost chunk loses the parcel; chunks already posted find no entry
      // at the pump and are dropped there.
      impl_->ships.erase(id);
      return;
    }
    SchedulePump();
  }
}

void TcpTransport::SchedulePump() {
  if (pump_scheduled_) return;
  pump_scheduled_ = true;
  cluster_->simulation()->Schedule(kPumpInterval, [this]() {
    pump_scheduled_ = false;
    Pump();
  });
}

void TcpTransport::NoteWireDecodeFailure(const char* what,
                                         const Status& status) {
  ++cluster_->metrics()->wire_decode_failures;
  SEEP_LOG(kWarn, 0) << "dropping wire message: " << what
                     << " failed to decode: " << status.message();
}

void TcpTransport::Pump() {
  Impl& impl = *impl_;
  // Take whatever the sockets hold. If nothing has arrived while frames are
  // in flight, give them a short wall-clock window to land before sim time
  // advances past this pump. The wait is bounded, so a stalled link
  // (reconnect backoff, dead peer mid-detach) delays the simulation by at
  // most kPumpWait per pump instead of wedging it.
  impl.cluster.Poll(std::chrono::microseconds::zero());
  const auto deadline = std::chrono::steady_clock::now() + kPumpWait;
  while (impl.inbox.empty() && impl.total_in_flight > 0) {
    const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left <= std::chrono::microseconds::zero()) break;
    impl.cluster.Poll(left);
  }
  // Dispatch only now that the poll has returned: handlers post, and posts
  // write to the sockets.
  std::deque<net::Message> drained;
  drained.swap(impl.inbox);
  for (net::Message& msg : drained) {
    switch (msg.type) {
      case net::MessageType::kBatch: {
        serde::Decoder dec(msg.body);
        auto to = dec.ReadVarint64();
        if (!to.ok()) {
          NoteWireDecodeFailure("batch target", to.status());
          break;
        }
        auto batch = core::TupleBatch::Decode(&dec);
        if (!batch.ok()) {
          NoteWireDecodeFailure("tuple batch", batch.status());
          break;
        }
        OperatorInstance* target = cluster_->membership()->GetInstance(
            static_cast<InstanceId>(to.value()));
        if (target != nullptr) target->OnBatch(std::move(batch).value());
        break;
      }
      case net::MessageType::kCheckpointChunk: {
        // The entry leaves the table while its chunk is processed: the
        // arrival callback may ship again, inserting into the table.
        auto ship = impl.ships.extract(msg.ship_id);
        if (ship.empty()) break;  // parcel already dropped
        Impl::ShipEntry& entry = ship.mapped();
        if (!ReceiveChunkMessage(cluster_, &entry.stream, msg.body,
                                 entry.on_arrival)) {
          impl.ships.insert(std::move(ship));  // more chunks to come
        }
        break;
      }
      case net::MessageType::kHello:
        break;  // hellos stay inside net/
    }
  }
  // Pump again only while traffic is in flight, so an idle transport
  // schedules nothing. (A post the dispatch above made has rescheduled the
  // pump already.)
  if (impl.total_in_flight > 0) SchedulePump();
}

}  // namespace seep::runtime
