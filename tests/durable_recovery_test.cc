// End-to-end durability tests: with the checkpoint log attached (kDisk /
// kTiered), a correlated failure that kills both the operator AND its
// backup holder still recovers exactly-once from the on-disk record — the
// scenario the paper's in-memory upstream backup (kMemory) cannot survive.
// Runs at audit level 2, so any protocol or durable-log invariant violation
// aborts the test. A backup still in flight when its owner retires, with
// its checkpoints suspended or merely stopped, is never stored over the
// tombstone, on either backend.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "runtime/operator_instance.h"
#include "runtime/transport.h"
#include "sps/sps.h"
#include "verify/invariant_auditor.h"
#include "workloads/wordcount/wordcount.h"

namespace seep {
namespace {

using runtime::BackupDurability;
using workloads::wordcount::BuildWordCountQuery;
using workloads::wordcount::WordCountConfig;
using workloads::wordcount::WordCountQuery;

struct Outcome {
  std::map<std::pair<int64_t, std::string>, int64_t> counts;
  double recovery_seconds = -1;
  uint64_t durable_appends = 0;
  uint64_t durable_reads = 0;
  bool recovery_scan_torn = false;
};

/// Runs wordcount and, at `fail_at`, crash-stops the VM of the counter
/// instance AND the VM of whichever upstream instance holds its backup —
/// the correlated owner+holder failure.
Outcome RunCorrelatedFailure(BackupDurability durability, double fail_at,
                             double total = 150) {
  WordCountConfig wc;
  wc.rate_tuples_per_sec = 200;
  wc.vocabulary = 300;
  wc.seed = 99;

  sps::SpsConfig config;
  config.cluster.checkpoint_interval = SecondsToSim(5);
  config.cluster.buffer_window = SecondsToSim(35);
  config.cluster.backup_durability = durability;
  config.cluster.audit_level = 2;
  config.scaling.enabled = false;

  WordCountQuery query = BuildWordCountQuery(wc);
  const OperatorId counter = query.counter;
  auto results = query.results;
  sps::Sps sps(std::move(query.graph), config);
  EXPECT_TRUE(sps.Deploy().ok());

  runtime::Cluster& cluster = sps.cluster();
  cluster.simulation()->ScheduleAt(
      SecondsToSim(fail_at), [&cluster, counter]() {
        const auto live = cluster.LiveInstancesOf(counter);
        ASSERT_FALSE(live.empty());
        const InstanceId owner = live.front();
        const InstanceId holder = cluster.backups()->HolderOf(owner);
        const auto* h = cluster.GetInstance(holder);
        ASSERT_NE(h, nullptr) << "no backup holder to kill";
        const VmId holder_vm = h->vm();
        const VmId owner_vm = cluster.GetInstance(owner)->vm();
        // Owner first, then its holder: both die before any re-backup.
        EXPECT_TRUE(cluster.membership()->KillVm(owner_vm).ok());
        EXPECT_TRUE(cluster.membership()->KillVm(holder_vm).ok());
      });
  sps.RunFor(total);

  Outcome outcome;
  outcome.counts = results->counts;
  for (const auto& r : sps.metrics().recoveries) {
    if (r.caught_up_at != 0) outcome.recovery_seconds = r.RecoverySeconds();
  }
  if (const auto* log = cluster.durable_log()) {
    outcome.durable_appends = log->metrics().appends.load();
    outcome.durable_reads = log->metrics().reads.load();
    outcome.recovery_scan_torn = log->recovery_info().torn;
    EXPECT_TRUE(log->VerifyIndex().ok());
  }
  return outcome;
}

int64_t WindowTotal(const Outcome& outcome, int64_t window) {
  int64_t total = 0;
  for (const auto& [key, count] : outcome.counts) {
    if (key.first == window) total += count;
  }
  return total;
}

class DurableRecoveryTest
    : public ::testing::TestWithParam<BackupDurability> {};

TEST_P(DurableRecoveryTest, CorrelatedOwnerHolderKillRecoversExactlyOnce) {
  const Outcome outcome = RunCorrelatedFailure(GetParam(), 47.0);
  EXPECT_GT(outcome.recovery_seconds, 0) << "recovery never completed";
  // Window 1 spans [30, 60) s and straddles the correlated failure at 47 s;
  // each of its ~6000 sentences contributes 20 words. Exactly-once means
  // the rebuilt window is exact — no loss (in-memory backup died with the
  // holder) and no duplication (trim acks only covered durable state).
  EXPECT_EQ(WindowTotal(outcome, 1), 6000 * 20);
  // The durable tier actually worked for its living: checkpoints were
  // appended and recovery read at least one back.
  EXPECT_GT(outcome.durable_appends, 0u);
  EXPECT_GT(outcome.durable_reads, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    DiskAndTiered, DurableRecoveryTest,
    ::testing::Values(BackupDurability::kDisk, BackupDurability::kTiered),
    [](const auto& info) {
      return info.param == BackupDurability::kDisk ? "Disk" : "Tiered";
    });

TEST(DurableRecoveryTest, MemoryModeLosesStateOnCorrelatedFailure) {
  // The control: the paper's in-memory tier cannot survive a correlated
  // owner+holder kill, so the straddling window undercounts. This pins the
  // scenario as genuinely unrecoverable without the log (if this ever
  // starts passing exactly, the correlated kill is not correlated).
  const Outcome outcome =
      RunCorrelatedFailure(BackupDurability::kMemory, 47.0);
  EXPECT_LT(WindowTotal(outcome, 1), 6000 * 20);
}

TEST(DurableRecoveryTest, TieredSurvivesSingleFailureByteExact) {
  // A plain (uncorrelated) failure under kTiered behaves like kMemory's
  // recovery — the in-memory copy serves the restore — but the durable log
  // must have tracked every stored checkpoint.
  WordCountConfig wc;
  wc.rate_tuples_per_sec = 200;
  wc.vocabulary = 300;
  wc.seed = 99;

  sps::SpsConfig config;
  config.cluster.checkpoint_interval = SecondsToSim(5);
  config.cluster.backup_durability = BackupDurability::kTiered;
  config.cluster.audit_level = 2;
  config.scaling.enabled = false;

  WordCountQuery query = BuildWordCountQuery(wc);
  auto results = query.results;
  sps::Sps sps(std::move(query.graph), config);
  ASSERT_TRUE(sps.Deploy().ok());
  sps.InjectFailure(query.counter, 47.0);
  sps.RunFor(150);

  Outcome outcome;
  outcome.counts = results->counts;
  EXPECT_EQ(WindowTotal(outcome, 1), 6000 * 20);
  const auto* log = sps.cluster().durable_log();
  ASSERT_NE(log, nullptr);
  EXPECT_GT(log->metrics().appends.load(), 0u);
  EXPECT_TRUE(log->VerifyIndex().ok());
}

class RetiredOwnerTest
    : public ::testing::TestWithParam<runtime::TransportKind> {
 protected:
  /// Runs word count for 10 s (kTiered, level-2 audit), ships a fresh
  /// capture of the counter to its backup holder, lets `retire` retire the
  /// counter in the same instant, runs 1 s more, and checks that the parcel
  /// stored nothing: the tombstone stays the log's last word, and the
  /// auditor is silent.
  void ExpectRetiredOwnerStoresNothing(
      const std::function<void(runtime::Cluster&, InstanceId)>& retire) {
    WordCountConfig wc;
    wc.rate_tuples_per_sec = 100;
    wc.vocabulary = 200;
    wc.seed = 17;

    sps::SpsConfig config;
    config.cluster.transport = GetParam();
    config.cluster.backup_durability = BackupDurability::kTiered;
    config.cluster.audit_level = 2;
    config.scaling.enabled = false;

    WordCountQuery query = BuildWordCountQuery(wc);
    const OperatorId counter = query.counter;
    sps::Sps sps(std::move(query.graph), config);
    runtime::Cluster& cluster = sps.cluster();
    std::vector<std::string> violations;
    cluster.audit()->SetHandler([&violations](const verify::Violation& v) {
      violations.push_back(v.invariant + ": " + v.detail);
    });
    ASSERT_TRUE(sps.Deploy().ok());
    sps.RunUntil(10);

    const InstanceId id = cluster.LiveInstancesOf(counter).front();
    runtime::OperatorInstance* owner = cluster.GetInstance(id);
    ASSERT_TRUE(cluster.backups()->Has(id));
    runtime::ShipToBackupHolder(
        &cluster, owner, runtime::CheckpointParcel{owner->MakeCheckpoint()});
    retire(cluster, id);
    sps.RunFor(1);

    EXPECT_FALSE(cluster.backups()->Has(id));
    ASSERT_NE(cluster.durable_log(), nullptr);
    EXPECT_FALSE(cluster.durable_log()->Find(id).has_value());
    for (const auto& v : violations) ADD_FAILURE() << "audit: " << v;
    EXPECT_EQ(cluster.audit()->violations(), 0u);
  }
};

TEST_P(RetiredOwnerTest, BackupInFlightWhenItsOwnerRetiresIsNeverStored) {
  // A backup parcel still in flight when a plan retires its owner must not
  // resurrect the tombstoned instance. The plan suspends the owner's
  // checkpoints before it retires it, and a parcel that arrives for a
  // suspended owner stores nothing (DeliverCheckpointToHolder's owner
  // check), on either backend.
  ExpectRetiredOwnerStoresNothing([](runtime::Cluster& cluster, InstanceId id) {
    cluster.GetInstance(id)->SuspendCheckpoints();
    cluster.membership()->RetireInstance(id, /*release_vm=*/false);
  });
}

TEST_P(RetiredOwnerTest, BackupInFlightWhenAStoppedOwnerRetiresIsNeverStored) {
  // A compensation retires the instances its aborted plan deployed without
  // suspending their checkpoints first (RetireDeployed), and releases
  // their VMs. A parcel from such an owner is still in flight on the sim,
  // which drops a delivery only when its receiver is gone; it must store
  // nothing either, because its owner is stopped.
  ExpectRetiredOwnerStoresNothing([](runtime::Cluster& cluster, InstanceId id) {
    cluster.membership()->RetireInstance(id, /*release_vm=*/true);
  });
}

INSTANTIATE_TEST_SUITE_P(
    SimAndTcp, RetiredOwnerTest,
    ::testing::Values(runtime::TransportKind::kSim,
                      runtime::TransportKind::kTcp),
    [](const auto& info) {
      return info.param == runtime::TransportKind::kSim ? "Sim" : "Tcp";
    });

}  // namespace
}  // namespace seep
