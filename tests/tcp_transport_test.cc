// End-to-end tests of the TCP transport backend: the windowed word-count
// workload running over real loopback sockets (runtime::TcpTransport /
// net::LocalCluster), with and without a mid-stream operator failure. The
// sim backend's failure-free run is the reference: stable-window results
// must match exactly, recovery must complete over TCP, the upstream must
// observe the dead peer as a TCP disconnection, and the invariant auditor
// at level 2 must stay silent. State crosses the sockets for real: every
// instance a scale out or recovery restores got exactly the partition its
// backup holder cut, and no parcel or frame outlives a run. The
// parcel-level cases (the pump, the parcel decode path, parcels from killed
// VMs) are in tcp_parcel_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/state_ops.h"
#include "net/local_cluster.h"
#include "runtime/operator_instance.h"
#include "runtime/tcp_transport.h"
#include "serde/encoder.h"
#include "sim/simulation.h"
#include "sps/sps.h"
#include "verify/invariant_auditor.h"
#include "workloads/wordcount/wordcount.h"

namespace seep {
namespace {

std::vector<uint8_t> Encoded(const core::StateCheckpoint& ckpt) {
  serde::Encoder enc;
  ckpt.Encode(&enc);
  return std::move(enc).TakeBuffer();
}

/// Checks that the instances one reconfiguration restores got exactly the
/// partitions the backup holder cut. Armed at the moment the plan starts,
/// it cuts the target's backup the way the plan does, then polls each new
/// instance's initial backup — the partition as it arrived over TCP, the
/// checkpoint Restore consumed — and compares encodings.
class RestoredStateCheck {
 public:
  void Arm(runtime::Cluster* cluster, InstanceId target, uint32_t pi) {
    cluster_ = cluster;
    target_ = target;
    auto base = cluster->backups()->Retrieve(target);
    ASSERT_TRUE(base.ok());
    const core::StateCheckpoint& b = base.value().checkpoint;
    auto parts =
        core::PartitionCheckpointByRanges(b, core::BalancedSplitRanges(b, pi));
    ASSERT_TRUE(parts.ok());
    parts_ = std::move(parts).value();
    verified_.assign(parts_.size(), false);
    Poll();
  }

  size_t verified() const {
    return static_cast<size_t>(
        std::count(verified_.begin(), verified_.end(), true));
  }

 private:
  void Poll() {
    for (size_t i = 0; i < parts_.size(); ++i) {
      const core::StateCheckpoint& cut = parts_[i];
      for (InstanceId id : cluster_->LiveInstancesOf(cut.op)) {
        const runtime::OperatorInstance* inst = cluster_->GetInstance(id);
        const runtime::BackupStore::Entry* entry =
            cluster_->backups()->Find(id);
        if (verified_[i] || id == target_ ||
            inst->key_range() != cut.key_range || entry == nullptr ||
            entry->checkpoint.seq != cut.seq) {
          continue;
        }
        // The initial backup is the arrived partition under the new
        // instance's id and origin.
        core::StateCheckpoint arrived = entry->checkpoint;
        arrived.instance = cut.instance;
        arrived.origin = cut.origin;
        EXPECT_EQ(Encoded(arrived), Encoded(cut)) << "partition " << i;
        verified_[i] = true;
      }
    }
    if (verified() < parts_.size()) {
      cluster_->simulation()->Schedule(MillisToSim(50), [this] { Poll(); });
    }
  }

  runtime::Cluster* cluster_ = nullptr;
  InstanceId target_ = kInvalidInstance;
  std::vector<core::StateCheckpoint> parts_;
  std::vector<bool> verified_;
};

/// Runs the simulation on in 1 ms steps (at most 2 s) until neither a
/// checkpoint parcel nor a frame is in flight, then asserts that the TCP
/// transport's parcel table and its in-flight frame count are both empty:
/// nothing leaks, whatever died mid-parcel.
void ExpectNoParcelsLeft(sps::Sps& sps) {
  auto* tcp = dynamic_cast<runtime::TcpTransport*>(sps.cluster().transport());
  ASSERT_NE(tcp, nullptr);
  for (int i = 0; i < 2000; ++i) {
    if (tcp->parcels_in_flight() == 0 && tcp->frames_in_flight() == 0) break;
    sps.RunFor(0.001);
  }
  EXPECT_EQ(tcp->parcels_in_flight(), 0u);
  EXPECT_EQ(tcp->frames_in_flight(), 0u);
}

using workloads::wordcount::BuildWordCountQuery;
using workloads::wordcount::WordCountConfig;
using workloads::wordcount::WordCountQuery;

sps::SpsConfig BaseConfig(runtime::TransportKind transport) {
  sps::SpsConfig config;
  config.cluster.transport = transport;
  config.cluster.checkpoint_interval = SecondsToSim(5);
  config.cluster.pool.target_size = 3;
  config.scaling.enabled = false;  // controlled experiments
  return config;
}

WordCountConfig BaseWorkload() {
  WordCountConfig wc;
  wc.rate_tuples_per_sec = 100;
  wc.vocabulary = 200;
  wc.window = SecondsToSim(30);
  wc.seed = 17;
  return wc;
}

struct RunOutcome {
  std::map<std::pair<int64_t, std::string>, int64_t> counts;
  uint64_t duplicates = 0;
  uint64_t recoveries_completed = 0;
  uint64_t audit_violations = 0;
  uint64_t disconnects_observed = 0;
  uint64_t tcp_messages_delivered = 0;
  std::vector<verify::Violation> violations;
};

RunOutcome RunQuery(const WordCountConfig& wc, const sps::SpsConfig& config,
                    double seconds,
                    const std::function<void(sps::Sps&)>& actions = nullptr) {
  WordCountQuery query = BuildWordCountQuery(wc);
  auto results = query.results;
  sps::Sps sps(std::move(query.graph), config);
  RunOutcome outcome;
  if (auto* audit = sps.cluster().audit()) {
    audit->SetHandler([&outcome](const verify::Violation& v) {
      outcome.violations.push_back(v);
    });
  }
  EXPECT_TRUE(sps.Deploy().ok());
  if (actions) actions(sps);
  sps.RunFor(seconds);

  outcome.counts = results->counts;
  outcome.duplicates = sps.metrics().duplicates_dropped;
  for (const auto& r : sps.metrics().recoveries) {
    if (r.caught_up_at != 0) ++outcome.recoveries_completed;
  }
  if (auto* audit = sps.cluster().audit()) {
    outcome.audit_violations = audit->violations();
  }
  if (auto* tcp =
          dynamic_cast<runtime::TcpTransport*>(sps.cluster().transport())) {
    outcome.disconnects_observed = tcp->disconnects_observed();
    outcome.tcp_messages_delivered = tcp->messages_delivered();
    ExpectNoParcelsLeft(sps);
  }
  return outcome;
}

// Restricts counts to windows fully closed and flushed well before t_end.
std::map<std::pair<int64_t, std::string>, int64_t> StableWindows(
    const std::map<std::pair<int64_t, std::string>, int64_t>& counts,
    int64_t max_window) {
  std::map<std::pair<int64_t, std::string>, int64_t> out;
  for (const auto& [key, value] : counts) {
    if (key.first <= max_window) out[key] = value;
  }
  return out;
}

TEST(TcpTransportIntegration, WordCountMatchesSimBackend) {
  const WordCountConfig wc = BaseWorkload();
  RunOutcome sim =
      RunQuery(wc, BaseConfig(runtime::TransportKind::kSim), 100);
  RunOutcome tcp =
      RunQuery(wc, BaseConfig(runtime::TransportKind::kTcp), 100);

  // Real traffic flowed over loopback TCP, and the windows that closed
  // before the horizon hold exactly the counts the deterministic sim
  // produced: batches are keyed by event time, so delivery-time differences
  // between the backends cannot change window contents.
  EXPECT_GT(tcp.tcp_messages_delivered, 0u);
  const auto expected = StableWindows(sim.counts, 2);
  const auto actual = StableWindows(tcp.counts, 2);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(expected, actual);
}

TEST(TcpTransportIntegration, FailureRecoversExactlyOnceOverTcp) {
  const WordCountConfig wc = BaseWorkload();
  sps::SpsConfig config = BaseConfig(runtime::TransportKind::kTcp);
  // Full protocol audit: per-tuple sink exactly-once stamps and whole-table
  // sweeps must hold on the TCP path too.
  config.cluster.audit_level = verify::kAuditExpensive;

  RunOutcome baseline =
      RunQuery(wc, BaseConfig(runtime::TransportKind::kSim), 150);
  RestoredStateCheck restored;
  RunOutcome with_failure =
      RunQuery(wc, config, 150, [&restored](sps::Sps& sps) {
        // Kill the stateful counter mid-window, well after checkpoints
        // exist. Over TCP this hard-kills the VM's worker: sockets close
        // mid-stream.
        sps.InjectFailure(/*counter op id=*/2, /*at_seconds=*/47);
        runtime::Cluster* cluster = &sps.cluster();
        cluster->simulation()->ScheduleAt(
            SecondsToSim(47), [cluster, &restored] {
              for (InstanceId id : cluster->InstancesOf(/*op=*/2)) {
                if (!cluster->GetInstance(id)->alive()) {
                  restored.Arm(cluster, id, /*pi=*/1);
                }
              }
            });
      });

  // Recovery ran to completion over TCP, restored exactly the checkpoint
  // the holder shipped, replay did real work, and the upstream worker
  // observed the dead peer as a TCP disconnection.
  EXPECT_EQ(with_failure.recoveries_completed, 1u);
  EXPECT_EQ(restored.verified(), 1u);
  EXPECT_GT(with_failure.duplicates, 0u);
  EXPECT_GE(with_failure.disconnects_observed, 1u);

  // Exactly-once at the sink: stable windows match the failure-free sim
  // reference, and the level-2 auditor saw zero protocol violations.
  const auto expected = StableWindows(baseline.counts, 3);
  const auto actual = StableWindows(with_failure.counts, 3);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(expected, actual);
  for (const auto& v : with_failure.violations) {
    ADD_FAILURE() << "audit violation " << v.invariant << ": " << v.detail;
  }
  EXPECT_EQ(with_failure.audit_violations, 0u);
}

TEST(TcpTransportIntegration, CorrelatedKillRecoversFromDurableLogOverTcp) {
  // The durability tentpole over real sockets: the counter's VM AND the VM
  // of the upstream instance holding its backup are hard-killed in the same
  // instant, so the in-memory backup dies with the holder and recovery has
  // to come off the on-disk checkpoint log (kTiered). Exactly-once must
  // still hold against the failure-free sim reference, with the level-2
  // auditor (including the durable-log invariants) silent.
  const WordCountConfig wc = BaseWorkload();
  sps::SpsConfig config = BaseConfig(runtime::TransportKind::kTcp);
  config.cluster.audit_level = verify::kAuditExpensive;
  config.cluster.backup_durability = runtime::BackupDurability::kTiered;

  RunOutcome baseline =
      RunQuery(wc, BaseConfig(runtime::TransportKind::kSim), 150);
  RunOutcome with_failure = RunQuery(wc, config, 150, [](sps::Sps& sps) {
    runtime::Cluster& cluster = sps.cluster();
    cluster.simulation()->ScheduleAt(SecondsToSim(47), [&cluster]() {
      const auto live = cluster.LiveInstancesOf(/*counter op id=*/2);
      ASSERT_FALSE(live.empty());
      const InstanceId owner = live.front();
      const InstanceId holder = cluster.backups()->HolderOf(owner);
      const auto* h = cluster.GetInstance(holder);
      ASSERT_NE(h, nullptr);
      const VmId holder_vm = h->vm();
      const VmId owner_vm = cluster.GetInstance(owner)->vm();
      EXPECT_TRUE(cluster.membership()->KillVm(owner_vm).ok());
      EXPECT_TRUE(cluster.membership()->KillVm(holder_vm).ok());
    });
  });

  // Both dead instances recovered over TCP, and the durable log actually
  // served at least one checkpoint back.
  EXPECT_EQ(with_failure.recoveries_completed, 2u);
  EXPECT_GE(with_failure.disconnects_observed, 1u);

  const auto expected = StableWindows(baseline.counts, 3);
  const auto actual = StableWindows(with_failure.counts, 3);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(expected, actual);
  for (const auto& v : with_failure.violations) {
    ADD_FAILURE() << "audit violation " << v.invariant << ": " << v.detail;
  }
  EXPECT_EQ(with_failure.audit_violations, 0u);
}

TEST(TcpTransportIntegration, DetachMidFlightKeepsPumpAccountingCoherent) {
  // Regression for the DetachVm path that zeroed the in-flight delivery
  // accounting while the detached VM's frames were still being delivered,
  // corrupting the counters and wedging the pump's wait forever. A short
  // horizon with a VM hard-killed while its frames are still in flight
  // hangs here (test timeout) if the fix regresses.
  const WordCountConfig wc = BaseWorkload();
  sps::SpsConfig config = BaseConfig(runtime::TransportKind::kTcp);
  RunOutcome outcome = RunQuery(wc, config, 60, [](sps::Sps& sps) {
    sps.InjectFailure(/*counter op id=*/2, /*at_seconds=*/12);
  });
  // The run drained: the killed VM's in-flight frames were written off,
  // the pump woke, and recovery completed over TCP.
  EXPECT_EQ(outcome.recoveries_completed, 1u);
  EXPECT_GT(outcome.tcp_messages_delivered, 0u);
  EXPECT_GE(outcome.disconnects_observed, 1u);
}

TEST(TcpTransportIntegration, AsyncPipelineMatchesSimBackend) {
  // Async checkpointing over TCP: captures serialize in the deferred
  // pipeline stage and each frame crosses loopback sockets as one message.
  // Stable windows must still match the synchronous sim reference exactly,
  // with the level-2 auditor silent.
  const WordCountConfig wc = BaseWorkload();
  sps::SpsConfig config = BaseConfig(runtime::TransportKind::kTcp);
  config.cluster.async_checkpoints = true;
  config.cluster.audit_level = verify::kAuditExpensive;

  RunOutcome sim =
      RunQuery(wc, BaseConfig(runtime::TransportKind::kSim), 100);
  RunOutcome tcp = RunQuery(wc, config, 100);

  const auto expected = StableWindows(sim.counts, 2);
  const auto actual = StableWindows(tcp.counts, 2);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(expected, actual);
  for (const auto& v : tcp.violations) {
    ADD_FAILURE() << "audit violation " << v.invariant << ": " << v.detail;
  }
  EXPECT_EQ(tcp.audit_violations, 0u);
}

TEST(TcpTransportIntegration, AsyncFailureWithParcelsInFlightRecoversExactly) {
  // Hard-kill the stateful counter's VM while async checkpoint parcels are
  // in flight: sockets die mid-stream, parcels from the dead VM never
  // arrive, and recovery from the last complete backup must stay
  // exactly-once under the full audit.
  const WordCountConfig wc = BaseWorkload();
  sps::SpsConfig config = BaseConfig(runtime::TransportKind::kTcp);
  config.cluster.async_checkpoints = true;
  config.cluster.audit_level = verify::kAuditExpensive;

  RunOutcome baseline =
      RunQuery(wc, BaseConfig(runtime::TransportKind::kSim), 150);
  RunOutcome with_failure = RunQuery(wc, config, 150, [](sps::Sps& sps) {
    sps.InjectFailure(/*counter op id=*/2, /*at_seconds=*/47);
  });

  EXPECT_EQ(with_failure.recoveries_completed, 1u);
  EXPECT_GE(with_failure.disconnects_observed, 1u);

  const auto expected = StableWindows(baseline.counts, 3);
  const auto actual = StableWindows(with_failure.counts, 3);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(expected, actual);
  for (const auto& v : with_failure.violations) {
    ADD_FAILURE() << "audit violation " << v.invariant << ": " << v.detail;
  }
  EXPECT_EQ(with_failure.audit_violations, 0u);
}

TEST(TcpTransportIntegration, HolderDeathMidShipCompensatesOverTcp) {
  // Fault injection into a running reconfiguration plan, over real loopback
  // sockets: the backup holder's VM worker is hard-killed while the
  // partitioned checkpoint is being shipped. The ship stage's deadline must
  // convert the lost transfer into an abort, the plan's compensations must
  // roll the query back to its old shape (level-2 audit watching: no leaked
  // VM, checkpoints resumed, routes restored), and a later retry must
  // converge once a fresh backup exists.
  WordCountConfig wc;
  wc.rate_tuples_per_sec = 1000;
  wc.words_per_sentence = 1;
  wc.vocabulary = 4096;
  wc.counter_cost_us = 100;
  wc.seed = 23;
  wc.window = SecondsToSim(30);

  sps::SpsConfig config = BaseConfig(runtime::TransportKind::kTcp);
  config.cluster.checkpoint_interval = SecondsToSim(2);
  config.cluster.audit_level = verify::kAuditExpensive;
  // ~100KB of counter state at 0.05 simulated s/KB: the ship stage spans
  // several seconds, so a kill 1s into the scale-out lands inside it.
  config.cluster.serialize_cost_us_per_kb = 5e4;
  config.cluster.pool.grant_delay = MillisToSim(100);
  config.coordinator.ship_deadline = SecondsToSim(30);

  WordCountQuery query = BuildWordCountQuery(wc);
  const OperatorId counter = query.counter;
  sps::Sps sps(std::move(query.graph), config);
  std::vector<std::string> audit_entries;
  sps.cluster().audit()->SetHandler([&audit_entries](
                                        const verify::Violation& v) {
    audit_entries.push_back(v.invariant + ": " + v.detail);
  });
  ASSERT_TRUE(sps.Deploy().ok());
  sps.RunUntil(10);

  const InstanceId target = sps.cluster().LiveInstancesOf(counter).at(0);
  const auto* backup = sps.cluster().backups()->Find(target);
  ASSERT_NE(backup, nullptr);
  const VmId holder_vm = sps.cluster().GetInstance(backup->holder)->vm();

  bool done = false;
  Status result;
  control::ScaleOutCoordinator::Callbacks callbacks;
  callbacks.on_done = [&](Status s) {
    done = true;
    result = std::move(s);
  };
  sps.scale_out_coordinator().ScaleOutInstance(target, 2, false,
                                               std::move(callbacks));
  sps.cluster().simulation()->Schedule(SecondsToSim(1), [&sps, holder_vm] {
    (void)sps.cluster().membership()->KillVm(holder_vm);
  });
  sps.RunUntil(60);

  // The plan aborted in its ship stage; the compensations restored the old
  // parallelism.
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.IsUnavailable());
  const runtime::ReconfigPlanEvent* aborted = nullptr;
  for (const auto& plan : sps.metrics().reconfig_plans) {
    if (plan.aborted) aborted = &plan;
  }
  ASSERT_NE(aborted, nullptr);
  ASSERT_FALSE(aborted->stages.empty());
  EXPECT_STREQ(aborted->stages.back().stage, "ship");
  EXPECT_EQ(sps.ParallelismOf(counter), 1u);
  if (auto* tcp =
          dynamic_cast<runtime::TcpTransport*>(sps.cluster().transport())) {
    EXPECT_GE(tcp->disconnects_observed(), 1u);
  }

  // The holder's own recovery plus the resumed checkpoint schedule yield a
  // fresh backup; the retry converges.
  sps.RunUntil(150);
  ASSERT_TRUE(sps.cluster().backups()->Has(target));
  bool retry_done = false;
  Status retry;
  control::ScaleOutCoordinator::Callbacks retry_callbacks;
  retry_callbacks.on_done = [&](Status s) {
    retry_done = true;
    retry = std::move(s);
  };
  sps.scale_out_coordinator().ScaleOutInstance(target, 2, false,
                                               std::move(retry_callbacks));
  sps.RunFor(60);
  ASSERT_TRUE(retry_done);
  EXPECT_TRUE(retry.ok());
  EXPECT_EQ(sps.ParallelismOf(counter), 2u);

  for (const auto& v : audit_entries) ADD_FAILURE() << "audit: " << v;
  EXPECT_EQ(sps.cluster().audit()->violations(), 0u);
  ExpectNoParcelsLeft(sps);
}

TEST(TcpTransportIntegration, ScaleOutPreservesResultsOverTcp) {
  const WordCountConfig wc = BaseWorkload();
  sps::SpsConfig config = BaseConfig(runtime::TransportKind::kTcp);
  config.cluster.audit_level = verify::kAuditExpensive;
  RunOutcome baseline =
      RunQuery(wc, BaseConfig(runtime::TransportKind::kSim), 150);
  RestoredStateCheck restored;
  RunOutcome scaled = RunQuery(wc, config, 150, [&restored](sps::Sps& sps) {
    runtime::Cluster* cluster = &sps.cluster();
    cluster->simulation()->ScheduleAt(
        SecondsToSim(47), [&sps, cluster, &restored] {
          const InstanceId target = cluster->LiveInstancesOf(/*op=*/2).back();
          restored.Arm(cluster, target, /*pi=*/2);
          sps.scale_out_coordinator().ScaleOutInstance(target, 2,
                                                       /*recovery=*/false);
        });
  });

  // Both new partitions restored exactly the partitions the holder cut, and
  // results match the unscaled sim reference.
  EXPECT_EQ(restored.verified(), 2u);
  const auto expected = StableWindows(baseline.counts, 3);
  const auto actual = StableWindows(scaled.counts, 3);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(expected, actual);
  for (const auto& v : scaled.violations) {
    ADD_FAILURE() << "audit violation " << v.invariant << ": " << v.detail;
  }
  EXPECT_EQ(scaled.audit_violations, 0u);
}

}  // namespace
}  // namespace seep
