#ifndef SEEP_NET_ENDPOINT_H_
#define SEEP_NET_ENDPOINT_H_

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/ids.h"

namespace seep::net {

/// Maps VmId to the loopback TCP port its worker listens on. Workers consult
/// the registry lazily on every (re)connect attempt, so a worker can start
/// before its peers have registered — the connect fails, backoff retries,
/// and the link comes up once the peer appears.
class EndpointRegistry {
 public:
  void Register(VmId vm, uint16_t port) { ports_[vm] = port; }

  void Unregister(VmId vm) { ports_.erase(vm); }

  std::optional<uint16_t> Lookup(VmId vm) const {
    auto it = ports_.find(vm);
    if (it == ports_.end()) return std::nullopt;
    return it->second;
  }

 private:
  std::unordered_map<VmId, uint16_t> ports_;
};

}  // namespace seep::net

#endif  // SEEP_NET_ENDPOINT_H_
