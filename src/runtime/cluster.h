#ifndef SEEP_RUNTIME_CLUSTER_H_
#define SEEP_RUNTIME_CLUSTER_H_

#include <map>
#include <memory>
#include <vector>

#include "cloud/cloud_provider.h"
#include "cloud/vm_pool.h"
#include "common/result.h"
#include "core/query_graph.h"
#include "core/state.h"
#include "runtime/backup_store.h"
#include "runtime/fence_registry.h"
#include "runtime/membership.h"
#include "runtime/metrics.h"
#include "runtime/transport.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "store/checkpoint_log.h"
#include "verify/invariant_auditor.h"

namespace seep::runtime {

class OperatorInstance;

/// Which fault-tolerance mechanism the deployment runs (paper §6.2 compares
/// all three; kNone is the Fig. 14 no-checkpointing baseline).
enum class FaultToleranceMode {
  kStateManagement,  // R+SM: periodic checkpoints backed up upstream
  kUpstreamBackup,   // UB: window-length buffers at every operator, replayed
  kSourceReplay,     // SR: buffers only at sources, whole pipeline replays
  kNone,             // no checkpoints, no recovery
};

/// Which Transport backend ships messages between instances. kSim is the
/// deterministic default every figure bench uses; kTcp runs real loopback
/// TCP between per-VM listeners (net::LocalCluster), whose sockets the sim
/// driver thread polls itself, so the whole runtime stays on that thread.
enum class TransportKind {
  kSim,
  kTcp,
};

struct ClusterConfig {
  sim::NetworkConfig network;
  cloud::CloudProviderConfig provider;
  cloud::VmPoolConfig pool;

  TransportKind transport = TransportKind::kSim;

  FaultToleranceMode ft_mode = FaultToleranceMode::kStateManagement;
  /// Checkpointing interval c (paper §3.2); R+SM only.
  SimTime checkpoint_interval = SecondsToSim(5);
  /// Age horizon for buffer trimming in UB/SR modes; must exceed the longest
  /// window of any operator, plus slack for replay.
  SimTime buffer_window = SecondsToSim(35);
  /// Input-queue admission limit per instance; arrivals beyond it are
  /// dropped (the open-loop overload behaviour). Replay batches are exempt.
  /// The default is large enough that closed-loop runs never drop; open-loop
  /// experiments (paper Fig. 8) configure a small limit explicitly.
  size_t max_queue_tuples = 4'000'000;
  /// CPU cost of serialising/deserialising checkpoint state, µs per KiB on
  /// the reference core; drives the Fig. 14 overhead.
  double serialize_cost_us_per_kb = 25.0;

  /// Asynchronous checkpoint pipeline: the operator pauses only for a cheap
  /// capture; serialization/compression runs as a deferred stage and the
  /// frame ships as background traffic. Off by default — the synchronous
  /// path (and every figure bench) is bit-for-bit unchanged.
  bool async_checkpoints = false;

  /// Durability tier of the backup directory: kMemory is the paper's single
  /// in-memory copy at the upstream holder (default, and byte-identical to
  /// the pre-durability behaviour), kDisk keeps backups only in the durable
  /// checkpoint log (src/store/), kTiered keeps both — memory for the fast
  /// paths, the log for correlated owner+holder failures.
  BackupDurability backup_durability = BackupDurability::kMemory;
  /// Durable checkpoint log settings (kDisk/kTiered only). An empty
  /// `store.directory` auto-provisions a unique directory under the working
  /// directory, removed again when the cluster shuts down.
  store::CheckpointLogConfig store;

  /// Whether backup holders are spread over upstream instances by hash
  /// (Algorithm 1 line 2). When false, every checkpoint goes to the first
  /// upstream instance — the baseline for the backup-spread ablation.
  bool spread_backups = true;

  /// Incremental checkpointing (paper §3.2 / [17]): operators that support
  /// dirty-key tracking ship only state deltas; the backup holder applies
  /// them onto its stored full copy. Every 12th checkpoint is a full
  /// resync (kFullCheckpointEvery in checkpoint_plane.cc).
  bool incremental_checkpoints = false;

  /// Protocol invariant auditing (src/verify/): 0 off, 1 cheap per-event
  /// checks, 2 adds per-tuple and whole-table sweeps. Defaults to the
  /// SEEP_AUDIT environment variable / the SEEP_AUDIT build option.
  int audit_level = verify::DefaultAuditLevel();

  uint64_t seed = 42;
};

/// The simulated deployment's substrate and subsystem wiring: event loop,
/// network, cloud provider, VM pool, metrics, routing and backup directory,
/// plus the three subsystems that own all runtime mechanism — Membership
/// (instance lifecycle), Transport (message shipping) and FenceRegistry
/// (replay fences). Policy (when to scale, how to recover) lives in
/// control/ and acts through those subsystem interfaces — mirroring the
/// paper's split between state management primitives and the SPS components
/// that use them. Cluster itself only wires and exposes; every membership
/// mutation goes through membership() and every message through
/// transport().
class Cluster {
 public:
  Cluster(const core::QueryGraph* graph, ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Simulation* simulation() { return &sim_; }
  sim::Network* network() { return &network_; }
  cloud::CloudProvider* provider() { return &provider_; }
  cloud::VmPool* pool() { return &pool_; }
  MetricsRegistry* metrics() { return &metrics_; }
  const ClusterConfig& config() const { return config_; }
  const core::QueryGraph* graph() const { return graph_; }
  core::RoutingState* routing() { return &routing_; }
  BackupStore* backups() { return &backups_; }
  SimTime Now() const { return sim_.Now(); }

  // --------------------------------------------------------------- planes

  /// Instance lifecycle and the partition/VM directories.
  Membership* membership() { return &membership_; }
  const Membership* membership() const { return &membership_; }

  /// All inter-instance message shipping.
  Transport* transport() { return transport_.get(); }

  /// Replay-fence registration and delivery.
  FenceRegistry* fences() { return &fences_; }

  /// The protocol invariant auditor, or null when auditing is off. Every
  /// component hook guards on this pointer, so audit-off deployments pay one
  /// branch per hook site.
  verify::InvariantAuditor* audit() { return auditor_.get(); }

  /// The single choke point for routing installs: replaces `down_op`'s
  /// routes and lets the auditor assert the new table exactly tiles the key
  /// space (Algorithm 2). Coordinators must use this instead of writing
  /// routing() directly.
  void InstallRoutes(OperatorId down_op,
                     std::vector<core::RoutingState::Route> routes);

  /// The single choke point for deleting a backup: drops the in-memory
  /// entry and tombstones the durable log (kDisk/kTiered) in the same step,
  /// so the two tiers never disagree about whether the owner still stores.
  /// What stops a parcel still in flight for the owner is the owner check
  /// on arrival (DeliverCheckpointToHolder): a dead owner, or one whose
  /// checkpoints are suspended, as a scale-out or scale-in plan leaves the
  /// instance it retires, stores nothing.
  void DeleteBackup(InstanceId owner);

  /// The durable checkpoint log, or null in kMemory mode.
  store::CheckpointLog* durable_log() { return durable_log_.get(); }

  // ------------------------------------------------- read-side conveniences
  // (lookups only — these delegate to membership(); mutations don't exist
  // here.)

  OperatorInstance* GetInstance(InstanceId id) {
    return membership_.GetInstance(id);
  }
  const OperatorInstance* GetInstance(InstanceId id) const {
    return membership_.GetInstance(id);
  }
  std::vector<InstanceId> InstancesOf(OperatorId op) const {
    return membership_.InstancesOf(op);
  }
  std::vector<InstanceId> LiveInstancesOf(OperatorId op) const {
    return membership_.LiveInstancesOf(op);
  }
  std::vector<InstanceId> UpstreamInstancesOf(OperatorId op) const {
    return membership_.UpstreamInstancesOf(op);
  }
  const std::map<InstanceId, std::unique_ptr<OperatorInstance>>& instances()
      const {
    return membership_.instances();
  }

  // ----------------------------------------------------------------- misc

  core::OriginId NewOrigin() { return ++origin_counter_; }

 private:
  const core::QueryGraph* graph_;
  ClusterConfig config_;
  sim::Simulation sim_;
  sim::Network network_;
  cloud::CloudProvider provider_;
  cloud::VmPool pool_;
  MetricsRegistry metrics_;
  core::RoutingState routing_;
  /// Declared before backups_ (which borrows a raw pointer) so the log
  /// outlives the directory that points into it.
  std::unique_ptr<store::CheckpointLog> durable_log_;
  /// Non-empty when the cluster auto-provisioned the store directory and
  /// owns its removal at shutdown.
  std::string owned_store_dir_;
  BackupStore backups_;

  core::OriginId origin_counter_ = 0;

  Membership membership_;
  FenceRegistry fences_;
  std::unique_ptr<Transport> transport_;
  std::unique_ptr<verify::InvariantAuditor> auditor_;
};

}  // namespace seep::runtime

#endif  // SEEP_RUNTIME_CLUSTER_H_
