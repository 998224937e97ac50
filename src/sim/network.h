#ifndef SEEP_SIM_NETWORK_H_
#define SEEP_SIM_NETWORK_H_

#include <cstdint>
#include <unordered_map>
#include <utility>

#include "common/ids.h"
#include "common/time.h"
#include "sim/simulation.h"

namespace seep::sim {

/// Network model parameters. Each VM has a dedicated full-duplex link to a
/// non-blocking core (star topology) — the standard abstraction for a cloud
/// datacenter fabric where the access link is the contention point.
struct NetworkConfig {
  /// One-way propagation delay between any two VMs.
  SimTime latency = MillisToSim(0.5);
  /// Per-VM uplink/downlink bandwidth in bytes per second. Small EC2
  /// instances in 2013 offered roughly ~100 Mb/s of usable throughput.
  double bandwidth_bytes_per_sec = 100e6 / 8;
};

/// Simulated network. Transfers occupy the sender's uplink and the
/// receiver's downlink FIFO: a large checkpoint backup or state replay
/// serialises behind earlier traffic on the same links, which is what gives
/// recovery its size-dependent cost (paper §6.2).
class Network {
 public:
  Network(Simulation* sim, NetworkConfig config)
      : sim_(sim), config_(config) {}

  /// Registers/unregisters a VM endpoint. Messages to unregistered endpoints
  /// are counted and dropped — this is how traffic to a failed VM dies.
  void Attach(VmId vm);
  void Detach(VmId vm);
  bool IsAttached(VmId vm) const { return endpoints_.contains(vm); }

  /// Sends `size_bytes` from `from` to `to` if both are attached; runs
  /// `on_delivery` when the last byte arrives, unless `to` has been
  /// detached by then (bytes a sender put on the wire before it died still
  /// arrive). The closure owns the message payload and is moved, never
  /// copied.
  ///
  /// `background` marks throttled bulk traffic (checkpoint backups): it
  /// waits behind foreground transfers and pays its own transmission time,
  /// but does not delay subsequent foreground traffic — the standard
  /// low-priority treatment for replication streams.
  template <typename F>
  void Send(VmId from, VmId to, uint64_t size_bytes, F on_delivery,
            bool background = false) {
    const SimTime delivered = Reserve(from, to, size_bytes, background);
    if (delivered < 0) return;
    sim_->ScheduleAt(delivered,
                     [this, to, cb = std::move(on_delivery)]() mutable {
                       // The receiver may have failed while the message was
                       // in flight.
                       if (!IsAttached(to)) {
                         ++messages_dropped_;
                         return;
                       }
                       cb();
                     });
  }

  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t messages_dropped() const { return messages_dropped_; }
  uint64_t bytes_sent() const { return bytes_sent_; }

  /// Total bytes that have crossed a given VM's uplink/downlink; used by
  /// the backup load-balancing ablation.
  uint64_t UplinkBytes(VmId vm) const;
  uint64_t DownlinkBytes(VmId vm) const;

 private:
  struct Endpoint {
    SimTime uplink_free = 0;    // when the uplink finishes current transfers
    SimTime downlink_free = 0;  // same for the downlink
    uint64_t uplink_bytes = 0;
    uint64_t downlink_bytes = 0;
  };

  /// Books a transfer on both endpoints' links and returns when its last
  /// byte arrives, or -1, counting the message as dropped, when either
  /// endpoint is detached.
  SimTime Reserve(VmId from, VmId to, uint64_t size_bytes, bool background);

  Simulation* sim_;
  NetworkConfig config_;
  std::unordered_map<VmId, Endpoint> endpoints_;
  uint64_t messages_sent_ = 0;
  uint64_t messages_dropped_ = 0;
  uint64_t bytes_sent_ = 0;
};

}  // namespace seep::sim

#endif  // SEEP_SIM_NETWORK_H_
