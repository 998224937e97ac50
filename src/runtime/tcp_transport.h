#ifndef SEEP_RUNTIME_TCP_TRANSPORT_H_
#define SEEP_RUNTIME_TCP_TRANSPORT_H_

#include <cstdint>
#include <memory>

#include "runtime/transport.h"

namespace seep::runtime {

/// Transport over real loopback TCP: one net::Worker per VM ships
/// length-prefixed crc32c frames between per-VM loopback listeners, and
/// the whole of it runs on the simulation driver thread. The workers share
/// one net::LocalCluster, whose single epoll set holds every VM's listener
/// and connections. Posts write straight to the sockets. A sim "pump" event
/// polls that set, which moves bytes and queues whatever arrived; the pump
/// then dispatches the queue through exactly the same handlers SimTransport
/// uses (OnBatch, ReceiveCheckpointFrame), never from inside a socket
/// callback. The pump is scheduled on demand: a post onto an idle transport
/// starts it, and it re-schedules itself only while frames are in flight,
/// so an idle transport schedules nothing. Every checkpoint parcel crosses
/// the socket as its serialized frame in one kCheckpoint message; the
/// receiver restores from the bytes that arrived. Per-link FIFO order
/// is preserved because each VM pair shares one TCP connection; only
/// arrival *times* differ from the sim backend, and the protocol's
/// correctness is timing-independent.
class TcpTransport : public Transport {
 public:
  explicit TcpTransport(Cluster* cluster);
  ~TcpTransport() override;

  void AttachVm(VmId vm) override;
  void DetachVm(VmId vm) override;
  SendPressure SendBatch(OperatorInstance* from, InstanceId to,
                         core::TupleBatch batch) override;
  /// Serializes a materialized parcel with EncodeCheckpointFrame, then
  /// posts the frame as the body of one kCheckpoint message.
  void ShipCheckpoint(VmId from, VmId to, CheckpointParcel parcel,
                      ArrivalFn on_arrival) override;

  /// Checkpoint parcels sent but neither delivered nor dropped yet.
  size_t parcels_in_flight() const;

  /// Frames the net layer accepted that have neither been delivered nor
  /// been reported dropped, over every link between attached VMs.
  uint64_t frames_in_flight() const;

  /// Times any worker observed a peer link die (failure tests assert the
  /// upstream actually saw the disconnection).
  uint64_t disconnects_observed() const;
  /// Messages delivered over TCP into the runtime, and frames dropped by
  /// the net layer (at the queue cap, or on a link that died or could not
  /// be opened), as the workers' callbacks report them.
  uint64_t messages_delivered() const;
  uint64_t frames_dropped() const;

 private:
  struct Impl;

  void Pump();
  /// Schedules the pump one interval from now, unless it is scheduled
  /// already. Every post the net layer accepts calls it, so traffic put in
  /// flight on an idle transport starts the pump.
  void SchedulePump();

  /// A wire body that fails to decode after passing the net layer's
  /// crc32c is protocol divergence: drop the message, but loudly —
  /// count it and log what/why so the loss is attributable.
  void NoteWireDecodeFailure(const char* what, const Status& status);

  Cluster* const cluster_;
  const std::unique_ptr<Impl> impl_;
  bool pump_scheduled_ = false;
};

}  // namespace seep::runtime

#endif  // SEEP_RUNTIME_TCP_TRANSPORT_H_
