#include "runtime/tcp_transport.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/logging.h"
#include "common/sync.h"
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

/// Everything shared between the sim driver thread and the worker threads.
/// Invariant: `in_flight[{from, to}]` counts the frames `from` posted to
/// `to` that the net layer accepted and that have neither reached the inbox
/// nor been reported dropped. Detaching a VM writes off every link to or
/// from it (traffic to a dead VM is dead by definition, and frames its
/// worker had queued died with the worker), and decrements are clamped, so
/// the total returns to zero once nothing live is in flight: the pump's
/// bounded wait never waits on a lost frame, and the pump stops.
///
/// The links run with net's default limits: SendBatch reports kPressured
/// above a worker's 4 MiB of queued outbound bytes, frames beyond its
/// 64 MiB cap are dropped (replay recovers them, exactly as after a crash),
/// and a receiver rejects any frame declaring more than
/// serde::kDefaultMaxFramePayload (64 MiB).
struct TcpTransport::Impl {
  net::LocalCluster cluster
      SEEP_UNGUARDED("internally synchronised (its own mu_; local_cluster.h)");

  sync::Mutex mu;
  sync::CondVar cv;
  std::deque<net::Message> inbox SEEP_GUARDED_BY(mu);
  std::set<VmId> attached SEEP_GUARDED_BY(mu);
  std::map<std::pair<VmId, VmId>, uint64_t> in_flight SEEP_GUARDED_BY(mu);
  uint64_t total_in_flight SEEP_GUARDED_BY(mu) = 0;

  // Checkpoint parcels in flight, keyed by the ship_id every chunk carries:
  // the endpoints, the chunk stream as sent and the sender's arrival
  // callback. Driver thread only — never touched by the worker-thread
  // callbacks.
  struct ShipEntry {
    VmId from = kInvalidVm;
    VmId to = kInvalidVm;
    TcpChunkStream stream;
    ArrivalFn on_arrival;
  };
  std::unordered_map<uint64_t, ShipEntry> ships
      SEEP_GUARDED_BY(sync::DriverThread);
  uint64_t next_ship_id SEEP_GUARDED_BY(sync::DriverThread) = 0;

  std::atomic<uint64_t> disconnects{0};

  void DecInFlightLocked(VmId from, VmId to, uint64_t n) SEEP_REQUIRES(mu) {
    auto it = in_flight.find({from, to});
    if (it == in_flight.end()) return;
    const uint64_t dec = std::min(it->second, n);
    it->second -= dec;
    total_in_flight -= dec;
  }

  /// Writes off every link to or from `vm`.
  void DetachLocked(VmId vm) SEEP_REQUIRES(mu) {
    attached.erase(vm);
    for (auto it = in_flight.begin(); it != in_flight.end();) {
      if (it->first.first == vm || it->first.second == vm) {
        total_in_flight -= it->second;
        it = in_flight.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Queues `msg` on `from`'s worker with in-flight accounting. A link with
  /// a detached end reports kClosed.
  net::SendStatus Post(VmId from, VmId to, const net::Message& msg)
      SEEP_EXCLUDES(mu) {
    {
      sync::MutexLock lock(&mu);
      if (attached.count(from) == 0 || attached.count(to) == 0) {
        return net::SendStatus::kClosed;
      }
      ++in_flight[{from, to}];
      ++total_in_flight;
    }
    const net::SendStatus st = cluster.Post(from, to, msg);
    if (Lost(st)) {
      sync::MutexLock lock(&mu);
      DecInFlightLocked(from, to, 1);
      cv.NotifyOne();
    }
    return st;
  }
};

bool ReceiveChunkMessage(Cluster* cluster, TcpChunkStream* stream,
                         const std::vector<uint8_t>& body,
                         const ArrivalFn& on_arrival) {
  SEEP_ASSERT_RUN_ON(sync::DriverThread);
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
  ReceiveCheckpointChunk(cluster, header.value(), body.data() + dec.position(),
                         n, on_arrival);
  return ++stream->next_index == want.count;
}

TcpTransport::TcpTransport(Cluster* cluster)
    : cluster_(cluster), impl_(std::make_unique<Impl>()) {}

TcpTransport::~TcpTransport() { impl_->cluster.Shutdown(); }

net::LocalCluster* TcpTransport::net_cluster() { return &impl_->cluster; }

uint64_t TcpTransport::disconnects_observed() const {
  return impl_->disconnects.load(std::memory_order_relaxed);
}

uint64_t TcpTransport::messages_delivered() const {
  return impl_->cluster.TotalStats().messages_delivered;
}

uint64_t TcpTransport::frames_dropped() const {
  return impl_->cluster.TotalStats().frames_dropped;
}

size_t TcpTransport::parcels_in_flight() const {
  SEEP_ASSERT_RUN_ON(sync::DriverThread);
  return impl_->ships.size();
}

uint64_t TcpTransport::frames_in_flight() const {
  sync::MutexLock lock(&impl_->mu);
  return impl_->total_in_flight;
}

void TcpTransport::AttachVm(VmId vm) {
  // Mirror into the sim network so its attachment directory (and any code
  // consulting IsAttached) stays coherent; no sim traffic flows through it.
  cluster_->network()->Attach(vm);
  Impl* impl = impl_.get();
  const Status started = impl->cluster.StartWorker(
      vm,
      /*on_message=*/
      [impl, vm](net::Message msg) {
        sync::MutexLock lock(&impl->mu);
        impl->DecInFlightLocked(msg.from_vm, vm, 1);
        impl->inbox.push_back(std::move(msg));
        impl->cv.NotifyOne();
      },
      /*on_peer_disconnect=*/
      [impl](VmId) {
        impl->disconnects.fetch_add(1, std::memory_order_relaxed);
      },
      /*on_frames_dropped=*/
      [impl, vm](VmId peer, size_t n) {
        sync::MutexLock lock(&impl->mu);
        impl->DecInFlightLocked(vm, peer, n);
        impl->cv.NotifyOne();
      });
  SEEP_CHECK(started.ok());
  sync::MutexLock lock(&impl->mu);
  impl->attached.insert(vm);
}

void TcpTransport::DetachVm(VmId vm) {
  SEEP_ASSERT_RUN_ON(sync::DriverThread);
  cluster_->network()->Detach(vm);
  // Kill first (joins the worker thread), then write off both directions:
  // frames queued in this VM's worker or kernel buffers, and frames on
  // their way to it, die unobserved, and the pump must not wait for them.
  impl_->cluster.KillWorker(vm);
  {
    sync::MutexLock lock(&impl_->mu);
    impl_->DetachLocked(vm);
    impl_->cv.NotifyOne();
  }
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
  SEEP_ASSERT_RUN_ON(sync::DriverThread);
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
  SEEP_ASSERT_RUN_ON(sync::DriverThread);
  SerializedCkptFrame frame;
  if (auto* ckpt = std::get_if<core::StateCheckpoint>(&parcel.body)) {
    frame =
        SerializeCheckpoint(*ckpt, cluster_->config().compress_checkpoints);
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
    SEEP_ASSERT_RUN_ON(sync::DriverThread);
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
  std::deque<net::Message> drained;
  {
    sync::MutexLock lock(&impl_->mu);
    // Bound the sim-time skew between send and delivery: while messages are
    // in flight, give them a short wall-clock window to land before sim
    // time advances past this pump. The wait is bounded, so a stalled link
    // (reconnect backoff, dead peer mid-detach) delays the simulation by at
    // most kPumpWait per pump instead of wedging it.
    impl_->cv.WaitFor(&impl_->mu, kPumpWait, [this] {
      impl_->mu.AssertHeld();
      return impl_->total_in_flight == 0 || !impl_->inbox.empty();
    });
    drained.swap(impl_->inbox);
  }
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
        auto ship = impl_->ships.extract(msg.ship_id);
        if (ship.empty()) break;  // parcel already dropped
        Impl::ShipEntry& entry = ship.mapped();
        if (!ReceiveChunkMessage(cluster_, &entry.stream, msg.body,
                                 entry.on_arrival)) {
          impl_->ships.insert(std::move(ship));  // more chunks to come
        }
        break;
      }
      case net::MessageType::kHello:
      case net::MessageType::kControl:
        break;  // hellos stay inside net/; no control users yet
    }
  }
  // Pump again only while traffic is in flight, so an idle transport
  // schedules nothing. (A post the dispatch above made has rescheduled the
  // pump already.)
  bool busy = false;
  {
    sync::MutexLock lock(&impl_->mu);
    busy = impl_->total_in_flight > 0 || !impl_->inbox.empty();
  }
  if (busy) SchedulePump();
}

}  // namespace seep::runtime
