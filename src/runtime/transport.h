#ifndef SEEP_RUNTIME_TRANSPORT_H_
#define SEEP_RUNTIME_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <variant>
#include <vector>

#include "common/ids.h"
#include "core/state.h"
#include "core/tuple.h"

namespace seep::runtime {

class Cluster;
class OperatorInstance;

/// What SendBatch reports about the sender's outbound queues. The simulated
/// backend never pushes back (the sim models links, not finite socket
/// buffers), so kNone keeps every sim run byte-identical; the TCP backend
/// reports kPressured when the sending worker's queued bytes cross its soft
/// watermark, and the sending instance throttles its job scheduler briefly
/// in response.
enum class [[nodiscard]] SendPressure : uint8_t {
  kNone = 0,
  kPressured = 1,
};

/// One checkpoint on its way between two VMs — the single unit of state
/// shipping. Backups (Algorithm 1) and the partitions that scale out and
/// recovery move from the holder to new VMs (Algorithm 3) all travel as
/// parcels.
struct CheckpointParcel {
  /// A materialized checkpoint (synchronous backups, partitions), or the
  /// frame (EncodeCheckpointFrame) the asynchronous pipeline already
  /// serialized.
  std::variant<core::StateCheckpoint, std::vector<uint8_t>> body;
  /// Throttled background traffic that must not delay the data path
  /// (backups), or foreground traffic a reconfiguration waits on.
  bool background = true;
};

/// A parcel's checkpoint as it reached its destination. `frame` holds the
/// bytes it crossed in when it crossed serialized (every TCP parcel, async
/// frames on the sim), which a durable-tier append reuses verbatim, and is
/// empty when the checkpoint was handed over in memory.
struct ArrivedCheckpoint {
  core::StateCheckpoint ckpt;
  std::vector<uint8_t> frame;
};

/// Runs on the driver thread when a parcel arrives whole and intact.
using ArrivalFn = std::function<void(ArrivedCheckpoint)>;

/// All inter-instance message shipping: tuple batches on the data path and
/// checkpoint parcels — backups and the state that scale out and recovery
/// move. Everything an instance or coordinator sends to another VM goes
/// through this interface; the simulated and the TCP backend are drop-in
/// replacements for each other.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Brings up / tears down the transport endpoint of a VM. Membership calls
  /// these as VMs are deployed, released and killed; after DetachVm, traffic
  /// to the VM is dead (dropped by the sim network, or met with closed
  /// sockets by the TCP backend — a dead TCP peer and a detached VM are the
  /// same event to the protocol).
  virtual void AttachVm(VmId vm) = 0;
  virtual void DetachVm(VmId vm) = 0;

  /// Ships a tuple batch from one instance to another, reporting outbound
  /// queue pressure.
  virtual SendPressure SendBatch(OperatorInstance* from, InstanceId to,
                                 core::TupleBatch batch) = 0;

  /// Ships `parcel` from VM `from` to VM `to` and runs `on_arrival` there
  /// with the checkpoint as it arrived. A parcel whose destination detaches
  /// first never arrives (over TCP, neither does one whose source detaches
  /// before it is delivered), and one that fails to decode is dropped and
  /// counted; the protocol treats both as a lost message.
  virtual void ShipCheckpoint(VmId from, VmId to, CheckpointParcel parcel,
                              ArrivalFn on_arrival) = 0;
};

/// Algorithm 1 line 2: the holder for `owner`'s checkpoints — spread over
/// the live upstream instances by hash (or the first one, for the ablation
/// baseline); kInvalidInstance when no upstream is live.
InstanceId ChooseBackupHolder(const Cluster* cluster,
                              const OperatorInstance* owner);

/// Algorithm 1 backup-state for either pipeline: ships `parcel` (a
/// checkpoint of `owner`) to the holder ChooseBackupHolder picks now, where
/// it is stored on arrival and acknowledged to the owner's upstream
/// instances (Algorithm 1 lines 3-7). Dropped when no upstream is live.
void ShipToBackupHolder(Cluster* cluster, OperatorInstance* owner,
                        CheckpointParcel parcel);

/// Arrival of a serialized checkpoint frame (driver thread), shared by both
/// backends: checks the crc32c, decompresses and decodes the frame
/// (DecodeCheckpointFrame) and runs `on_arrival` with the checkpoint and
/// the bytes it arrived in. A frame that fails any step is dropped and
/// counts a decode failure — the protocol treats it like a message lost to
/// a link failure.
void ReceiveCheckpointFrame(Cluster* cluster, std::vector<uint8_t> frame,
                            const ArrivalFn& on_arrival);

/// Transport over the deterministic `sim::Network`: batches pay the data
/// path's bandwidth/latency. A checkpoint parcel is one message in the
/// parcel's traffic class — backups as throttled background traffic that
/// must not delay the data path (the paper checkpoints asynchronously). A
/// materialized checkpoint is handed over in memory at its modeled byte
/// count; a serialized frame crosses at its size and is decoded on arrival.
class SimTransport : public Transport {
 public:
  explicit SimTransport(Cluster* cluster) : cluster_(cluster) {}

  void AttachVm(VmId vm) override;
  void DetachVm(VmId vm) override;
  SendPressure SendBatch(OperatorInstance* from, InstanceId to,
                         core::TupleBatch batch) override;
  void ShipCheckpoint(VmId from, VmId to, CheckpointParcel parcel,
                      ArrivalFn on_arrival) override;

 private:
  Cluster* cluster_;
};

}  // namespace seep::runtime

#endif  // SEEP_RUNTIME_TRANSPORT_H_
