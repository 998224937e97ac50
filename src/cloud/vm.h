#ifndef SEEP_CLOUD_VM_H_
#define SEEP_CLOUD_VM_H_

#include <cstdint>

#include "common/ids.h"
#include "common/time.h"

namespace seep::cloud {

/// Lifecycle of a simulated virtual machine.
enum class VmState {
  kProvisioning,  // requested from the provider, not yet booted
  kPooled,        // booted and parked in the VM pool
  kInUse,         // hosting an operator instance
  kFailed,        // crashed (crash-stop model, paper §2.2)
  kReleased,      // returned to the provider, no longer billed
};

/// A virtual machine. `capacity` expresses compute power relative to the
/// reference core that per-tuple operator costs are calibrated against
/// (paper: 1 EC2 compute unit ≈ 1.0–1.2 GHz 2007 Xeon).
struct Vm {
  VmId id = kInvalidVm;
  double capacity = 1.0;
  VmState state = VmState::kProvisioning;
  SimTime requested_at = 0;
  SimTime booted_at = 0;
  SimTime released_at = 0;  // also set on failure, for billing purposes
};

}  // namespace seep::cloud

#endif  // SEEP_CLOUD_VM_H_
