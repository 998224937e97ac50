#include "sim/network.h"

#include <algorithm>

#include "common/macros.h"

namespace seep::sim {

void Network::Attach(VmId vm) { endpoints_.try_emplace(vm); }

void Network::Detach(VmId vm) { endpoints_.erase(vm); }

SimTime Network::Reserve(VmId from, VmId to, uint64_t size_bytes,
                         bool background) {
  auto src = endpoints_.find(from);
  auto dst = endpoints_.find(to);
  if (src == endpoints_.end() || dst == endpoints_.end()) {
    ++messages_dropped_;
    return -1;
  }
  const SimTime now = sim_->Now();
  const SimTime tx_time = static_cast<SimTime>(
      static_cast<double>(size_bytes) / config_.bandwidth_bytes_per_sec *
      static_cast<double>(kMicrosPerSecond));

  // Serialise on the sender's uplink, then propagate, then serialise on the
  // receiver's downlink. Background transfers experience the queueing but
  // do not push the free-pointers forward, so they never delay foreground
  // data traffic.
  const SimTime uplink_done = std::max(now, src->second.uplink_free) + tx_time;
  if (!background) src->second.uplink_free = uplink_done;
  src->second.uplink_bytes += size_bytes;
  const SimTime at_receiver = uplink_done + config_.latency;
  const SimTime delivered =
      std::max(at_receiver, dst->second.downlink_free + config_.latency) +
      tx_time;
  if (!background) dst->second.downlink_free = delivered - config_.latency;
  dst->second.downlink_bytes += size_bytes;

  ++messages_sent_;
  bytes_sent_ += size_bytes;
  return delivered;
}

uint64_t Network::UplinkBytes(VmId vm) const {
  auto it = endpoints_.find(vm);
  return it == endpoints_.end() ? 0 : it->second.uplink_bytes;
}

uint64_t Network::DownlinkBytes(VmId vm) const {
  auto it = endpoints_.find(vm);
  return it == endpoints_.end() ? 0 : it->second.downlink_bytes;
}

}  // namespace seep::sim
