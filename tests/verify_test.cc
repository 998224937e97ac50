// Tests for the protocol invariant auditor: per-invariant unit tests with
// a collecting handler, mutation tests that corrupt protocol state (a trim
// decision, a routing table, a replay/fence order) and assert the auditor
// aborts naming the violated invariant, and an audited end-to-end smoke run
// that must finish with zero violations.
//
// The mutation tests exercise the auditor's abort path the way a buggy
// component would: the hook stream is the component's claimed actions, so a
// corrupted internal table manifests as a claimed action that disagrees
// with the auditor's independently accumulated mirror.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/hash.h"
#include "control/deployment_manager.h"
#include "core/state_ops.h"
#include "runtime/cluster.h"
#include "runtime/operator_instance.h"
#include "runtime/trim_tracker.h"
#include "verify/invariant_auditor.h"

namespace seep::verify {
namespace {

// ------------------------------------------------------------ unit tests

/// An auditor whose violations are collected instead of aborting.
struct Collector {
  explicit Collector(int level = kAuditExpensive) : audit(level) {
    audit.SetHandler(
        [this](const Violation& v) { names.push_back(v.invariant); });
  }

  InvariantAuditor audit;
  std::vector<std::string> names;
};

constexpr InstanceId kUp = 1;
constexpr OperatorId kDownOp = 7;
constexpr InstanceId kA = 2;
constexpr InstanceId kB = 3;

TEST(AuditorTrimTest, TrimWithinAckedCoverageIsClean) {
  Collector c;
  c.audit.OnNoteSent(kUp, kDownOp, kA, 100);
  c.audit.OnTrimAck(kUp, kDownOp, kA, 60);
  c.audit.OnTrim(kUp, kDownOp, 60, {kA});
  EXPECT_TRUE(c.names.empty());
}

TEST(AuditorTrimTest, TrimBeyondCoverageTripsCheckpointCoversTrim) {
  Collector c;
  c.audit.OnNoteSent(kUp, kDownOp, kA, 100);
  c.audit.OnTrimAck(kUp, kDownOp, kA, 60);
  c.audit.OnTrim(kUp, kDownOp, 61, {kA});
  ASSERT_EQ(c.names.size(), 1u);
  EXPECT_EQ(c.names[0], "checkpoint-covers-trim");
}

TEST(AuditorTrimTest, RegressingTrimTripsMonotonicity) {
  Collector c;
  c.audit.OnNoteSent(kUp, kDownOp, kA, 100);
  c.audit.OnTrimAck(kUp, kDownOp, kA, 50);
  c.audit.OnTrim(kUp, kDownOp, 50, {kA});
  c.audit.OnTrim(kUp, kDownOp, 40, {kA});
  ASSERT_EQ(c.names.size(), 1u);
  EXPECT_EQ(c.names[0], "trim-monotonicity");
}

TEST(AuditorTrimTest, FullyAckedDestinationsAllowTrimToMaxSent) {
  // Mirror of the TrimTracker bound: a destination with sent == acked has
  // nothing outstanding and does not constrain the trim.
  Collector c;
  c.audit.OnNoteSent(kUp, kDownOp, kA, 80);
  c.audit.OnNoteSent(kUp, kDownOp, kB, 100);
  c.audit.OnTrimAck(kUp, kDownOp, kA, 80);
  c.audit.OnTrimAck(kUp, kDownOp, kB, 100);
  c.audit.OnTrim(kUp, kDownOp, 100, {kA, kB});
  EXPECT_TRUE(c.names.empty());
}

TEST(AuditorTrimTest, SeededReplacementConstrainsFromItsRestorePoint) {
  // After a scale-out, a freshly seeded partition's (lower) restore point
  // bounds trims for tuples newly outstanding to it.
  Collector c;
  c.audit.OnNoteSent(kUp, kDownOp, kA, 100);
  c.audit.OnTrimAck(kUp, kDownOp, kA, 100);
  c.audit.OnTrim(kUp, kDownOp, 100, {kA});
  c.audit.OnSeedAck(kUp, kDownOp, kB, 90);
  c.audit.OnNoteSent(kUp, kDownOp, kB, 120);
  c.audit.OnTrim(kUp, kDownOp, 121, {kB});
  ASSERT_EQ(c.names.size(), 1u);
  EXPECT_EQ(c.names[0], "checkpoint-covers-trim");
}

TEST(AuditorCheckpointTest, BackupOnOwnVmTripsBackupPlacement) {
  Collector c;
  c.audit.OnCheckpointStored(/*owner=*/kA, /*owner_vm=*/4, /*holder=*/kB,
                             /*holder_vm=*/4, /*seq=*/1);
  ASSERT_EQ(c.names.size(), 1u);
  EXPECT_EQ(c.names[0], "backup-placement");
}

TEST(AuditorCheckpointTest, BackupOnOwnInstanceTripsBackupPlacement) {
  Collector c;
  c.audit.OnCheckpointStored(kA, 4, kA, 5, 1);
  ASSERT_EQ(c.names.size(), 1u);
  EXPECT_EQ(c.names[0], "backup-placement");
}

TEST(AuditorCheckpointTest, StaleSequenceTripsSeqMonotonicity) {
  Collector c;
  c.audit.OnCheckpointStored(kA, 4, kB, 5, 2);
  c.audit.OnCheckpointStored(kA, 4, kB, 5, 3);
  EXPECT_TRUE(c.names.empty());
  c.audit.OnCheckpointStored(kA, 4, kB, 5, 3);  // replayed duplicate
  ASSERT_EQ(c.names.size(), 1u);
  EXPECT_EQ(c.names[0], "checkpoint-seq-monotonicity");
}

// -------------------------------------------- async checkpoint pipeline

TEST(AuditorCheckpointTest, StoreWhileSuspendedTripsNoStoreWhileSuspended) {
  Collector c;
  c.audit.OnCheckpointStored(kA, 4, kB, 5, 1);
  c.audit.OnCheckpointsSuspended(kA);
  // A straggler frame (e.g. from the background serializer) lands while the
  // coordinator holds the owner suspended: its trim acks would outrun the
  // older restore point the coordinator is partitioning.
  c.audit.OnCheckpointStored(kA, 4, kB, 5, 2);
  ASSERT_EQ(c.names.size(), 1u);
  EXPECT_EQ(c.names[0], "no-store-while-suspended");
  c.names.clear();
  c.audit.OnCheckpointsResumed(kA);
  c.audit.OnCheckpointStored(kA, 4, kB, 5, 3);
  EXPECT_TRUE(c.names.empty());
}

TEST(AuditorCheckpointTest, AbortedSequenceStoredTripsAbortedCheckpoint) {
  Collector c;
  c.audit.OnCheckpointStored(kA, 4, kB, 5, 1);
  c.audit.OnAsyncCheckpointAborted(kA, 2);
  // The abort consumed seq 2; a frame claiming it must never be stored.
  c.audit.OnCheckpointStored(kA, 4, kB, 5, 2);
  ASSERT_EQ(c.names.size(), 1u);
  EXPECT_EQ(c.names[0], "aborted-checkpoint-stored");
}

TEST(AuditorCheckpointTest, ResumeClearsAbortMarkersForRewoundLineage) {
  Collector c;
  c.audit.OnCheckpointsSuspended(kA);
  c.audit.OnAsyncCheckpointAborted(kA, 5);
  c.audit.OnCheckpointsResumed(kA);
  // A restore during the suspension rewinds the owner's lineage, so seq 5
  // may be legitimately reused by a fresh post-resume checkpoint.
  c.audit.OnCheckpointStored(kA, 4, kB, 5, 5);
  EXPECT_TRUE(c.names.empty());
}

core::RoutingState::Route Route(uint64_t lo, uint64_t hi, InstanceId id) {
  return {core::KeyRange{lo, hi}, id};
}

TEST(AuditorRoutingTest, ExactTilingIsClean) {
  Collector c;
  c.audit.OnRoutesInstalled(
      kDownOp, {Route(0, 99, kA), Route(100, UINT64_MAX, kB)});
  EXPECT_TRUE(c.names.empty());
}

TEST(AuditorRoutingTest, GapTripsRouteTiling) {
  Collector c;
  c.audit.OnRoutesInstalled(
      kDownOp, {Route(0, 99, kA), Route(101, UINT64_MAX, kB)});
  ASSERT_EQ(c.names.size(), 1u);
  EXPECT_EQ(c.names[0], "route-tiling");
}

TEST(AuditorRoutingTest, OverlapTripsRouteTiling) {
  Collector c;
  c.audit.OnRoutesInstalled(
      kDownOp, {Route(0, 100, kA), Route(100, UINT64_MAX, kB)});
  ASSERT_EQ(c.names.size(), 1u);
  EXPECT_EQ(c.names[0], "route-tiling");
}

TEST(AuditorRoutingTest, TruncatedKeySpaceTripsRouteTiling) {
  Collector c;
  c.audit.OnRoutesInstalled(kDownOp, {Route(0, 99, kA)});
  ASSERT_EQ(c.names.size(), 1u);
  EXPECT_EQ(c.names[0], "route-tiling");
  c.names.clear();
  c.audit.OnRoutesInstalled(kDownOp, {Route(1, UINT64_MAX, kA)});
  ASSERT_EQ(c.names.size(), 1u);
  EXPECT_EQ(c.names[0], "route-tiling");
}

TEST(AuditorRoutingTest, EmptyTableTripsRouteTiling) {
  Collector c;
  c.audit.OnRoutesInstalled(kDownOp, {});
  ASSERT_EQ(c.names.size(), 1u);
  EXPECT_EQ(c.names[0], "route-tiling");
}

core::StateCheckpoint MakeBase(size_t entries, size_t buffered) {
  core::StateCheckpoint base;
  base.op = kDownOp;
  base.instance = kA;
  base.key_range = core::KeyRange::Full();
  for (size_t i = 0; i < entries; ++i) {
    base.processing.Add(Mix64(i), "v");
  }
  for (size_t i = 0; i < buffered; ++i) {
    core::Tuple t;
    t.timestamp = static_cast<int64_t>(i);
    base.buffer.Append(/*downstream=*/9, std::move(t));
  }
  return base;
}

TEST(AuditorPartitionTest, RealPartitionFunctionIsClean) {
  Collector c;
  const core::StateCheckpoint base = MakeBase(64, 10);
  auto parts = core::PartitionCheckpoint(base, 3);
  ASSERT_TRUE(parts.ok());
  c.audit.OnPartitioned(base, parts.value());
  EXPECT_TRUE(c.names.empty());
}

TEST(AuditorPartitionTest, LostEntryTripsPartitionCompleteness) {
  Collector c;
  const core::StateCheckpoint base = MakeBase(64, 0);
  auto parts = core::PartitionCheckpoint(base, 2);
  ASSERT_TRUE(parts.ok());
  // Corrupt: drop one partition's state entirely.
  parts.value()[1].processing = core::ProcessingState{};
  c.audit.OnPartitioned(base, parts.value());
  ASSERT_EQ(c.names.size(), 1u);
  EXPECT_EQ(c.names[0], "partition-completeness");
}

TEST(AuditorPartitionTest, MisroutedEntryTripsPartitionCompleteness) {
  Collector c;
  core::StateCheckpoint base = MakeBase(0, 0);
  base.processing.Add(/*key=*/0, "v");
  auto parts = core::PartitionCheckpoint(base, 2);
  ASSERT_TRUE(parts.ok());
  // Corrupt: move the key-0 entry into the high partition (whose range
  // does not contain it), conserving the total count.
  parts.value()[0].processing = core::ProcessingState{};
  parts.value()[1].processing.Add(/*key=*/0, "v");
  c.audit.OnPartitioned(base, parts.value());
  ASSERT_EQ(c.names.size(), 1u);
  EXPECT_EQ(c.names[0], "partition-completeness");
}

TEST(AuditorPartitionTest, DroppedBufferTuplesTripPartitionCompleteness) {
  Collector c;
  const core::StateCheckpoint base = MakeBase(8, 10);
  auto parts = core::PartitionCheckpoint(base, 2);
  ASSERT_TRUE(parts.ok());
  for (auto& p : parts.value()) p.buffer = core::BufferState{};
  c.audit.OnPartitioned(base, parts.value());
  ASSERT_EQ(c.names.size(), 1u);
  EXPECT_EQ(c.names[0], "partition-completeness");
}

TEST(AuditorFenceTest, FenceAfterDrainedReplayIsClean) {
  Collector c;
  c.audit.OnReplaySent(kA, kB, 5);
  c.audit.OnFenceSent(/*fence_id=*/1, kA, kB);
  c.audit.OnReplayProcessed(kA, kB, 5);
  c.audit.OnFenceProcessed(1, kA, kB);
  EXPECT_TRUE(c.names.empty());
}

TEST(AuditorFenceTest, FenceOvertakingReplayTripsFenceBeforeReplay) {
  Collector c;
  c.audit.OnReplaySent(kA, kB, 5);
  c.audit.OnFenceSent(1, kA, kB);
  c.audit.OnReplayProcessed(kA, kB, 3);
  c.audit.OnFenceProcessed(1, kA, kB);
  ASSERT_EQ(c.names.size(), 1u);
  EXPECT_EQ(c.names[0], "fence-before-replay");
}

TEST(AuditorFenceTest, ForwardedFenceWithoutSnapshotIsIgnored) {
  // A fence forwarded through an intermediate hop arrives on links the
  // registry never announced; those carry no drain obligation here.
  Collector c;
  c.audit.OnFenceProcessed(/*fence_id=*/42, kA, kB);
  EXPECT_TRUE(c.names.empty());
}

TEST(AuditorSinkTest, DuplicateStampTripsExactlyOnceAtLevel2) {
  Collector c(kAuditExpensive);
  c.audit.OnSinkDelivered(kDownOp, /*origin=*/5, /*timestamp=*/1000);
  c.audit.OnSinkDelivered(kDownOp, 5, 1001);
  EXPECT_TRUE(c.names.empty());
  c.audit.OnSinkDelivered(kDownOp, 5, 1000);
  ASSERT_EQ(c.names.size(), 1u);
  EXPECT_EQ(c.names[0], "sink-exactly-once");
}

TEST(AuditorSinkTest, StampsNotTrackedBelowLevel2) {
  Collector c(kAuditCheap);
  c.audit.OnSinkDelivered(kDownOp, 5, 1000);
  c.audit.OnSinkDelivered(kDownOp, 5, 1000);
  EXPECT_TRUE(c.names.empty());
}

// ------------------------------------------------ reconfiguration plane

TEST(AuditorPlanTest, CommittedPlanWithAllVmsDisposedIsClean) {
  Collector c;
  c.audit.OnPlanStarted(/*plan_id=*/1, kDownOp);
  c.audit.OnPlanVmAcquired(1, /*vm=*/40);
  c.audit.OnPlanVmAcquired(1, 41);
  c.audit.OnPlanVmDisposed(1, 40);
  c.audit.OnPlanVmDisposed(1, 41);
  c.audit.OnPlanFinished(1, kDownOp, /*aborted=*/false);
  EXPECT_TRUE(c.names.empty());
}

TEST(AuditorPlanTest, UndisposedVmTripsNoLeakedVm) {
  Collector c;
  c.audit.OnPlanStarted(1, kDownOp);
  c.audit.OnPlanVmAcquired(1, 40);
  c.audit.OnPlanVmAcquired(1, 41);
  c.audit.OnPlanVmDisposed(1, 40);
  c.audit.OnPlanFinished(1, kDownOp, /*aborted=*/true);
  ASSERT_EQ(c.names.size(), 1u);
  EXPECT_EQ(c.names[0], "no-leaked-vm");
}

TEST(AuditorPlanTest, SecondPlanForSameOpTripsOnePlanPerOperator) {
  Collector c;
  c.audit.OnPlanStarted(1, kDownOp);
  c.audit.OnPlanStarted(2, kDownOp);
  ASSERT_EQ(c.names.size(), 1u);
  EXPECT_EQ(c.names[0], "one-plan-per-operator");
  // A plan on a different operator is fine, and once both plans finish the
  // operator is free for a successor.
  c.names.clear();
  c.audit.OnPlanStarted(3, kDownOp + 1);
  c.audit.OnPlanFinished(2, kDownOp, false);
  c.audit.OnPlanFinished(1, kDownOp, false);
  c.audit.OnPlanStarted(4, kDownOp);
  EXPECT_TRUE(c.names.empty());
}

TEST(AuditorPlanTest, AbortLeavingCheckpointsSuspendedTripsResumeInvariant) {
  Collector c;
  c.audit.OnCheckpointsSuspended(kA);
  c.audit.OnPlanStarted(1, kDownOp);
  c.audit.OnPlanSuspendedCheckpoints(1, kA);
  c.audit.OnPlanFinished(1, kDownOp, /*aborted=*/true);
  ASSERT_EQ(c.names.size(), 1u);
  EXPECT_EQ(c.names[0], "checkpoints-resumed-after-abort");
}

TEST(AuditorPlanTest, AbortAfterResumeIsClean) {
  Collector c;
  c.audit.OnCheckpointsSuspended(kA);
  c.audit.OnPlanStarted(1, kDownOp);
  c.audit.OnPlanSuspendedCheckpoints(1, kA);
  c.audit.OnCheckpointsResumed(kA);
  c.audit.OnPlanFinished(1, kDownOp, /*aborted=*/true);
  EXPECT_TRUE(c.names.empty());
}

TEST(AuditorPlanTest, DeadInstanceExemptFromResumeInvariant) {
  // The suspended instance died mid-plan: its replacement starts a fresh
  // checkpoint schedule, so the frozen one need not be resumed.
  Collector c;
  c.audit.OnCheckpointsSuspended(kA);
  c.audit.OnPlanStarted(1, kDownOp);
  c.audit.OnPlanSuspendedCheckpoints(1, kA);
  c.audit.OnInstanceDead(kA);
  c.audit.OnPlanFinished(1, kDownOp, /*aborted=*/true);
  EXPECT_TRUE(c.names.empty());
}

TEST(AuditorPlanTest, AbortWithChangedRoutesTripsRoutesRestored) {
  Collector c;
  c.audit.OnRoutesInstalled(kDownOp, {Route(0, UINT64_MAX, kA)});
  c.audit.OnPlanStarted(1, kDownOp);
  c.audit.OnRoutesInstalled(
      kDownOp, {Route(0, 99, kA), Route(100, UINT64_MAX, kB)});
  c.audit.OnPlanFinished(1, kDownOp, /*aborted=*/true);
  ASSERT_EQ(c.names.size(), 1u);
  EXPECT_EQ(c.names[0], "routes-restored-on-abort");
}

TEST(AuditorPlanTest, AbortWithRoutesPutBackIsClean) {
  Collector c;
  c.audit.OnRoutesInstalled(kDownOp, {Route(0, UINT64_MAX, kA)});
  c.audit.OnPlanStarted(1, kDownOp);
  c.audit.OnRoutesInstalled(
      kDownOp, {Route(0, 99, kA), Route(100, UINT64_MAX, kB)});
  c.audit.OnRoutesInstalled(kDownOp, {Route(0, UINT64_MAX, kA)});
  c.audit.OnPlanFinished(1, kDownOp, /*aborted=*/true);
  EXPECT_TRUE(c.names.empty());
}

TEST(AuditorPlanTest, CommittedPlanMayChangeRoutes) {
  Collector c;
  c.audit.OnRoutesInstalled(kDownOp, {Route(0, UINT64_MAX, kA)});
  c.audit.OnPlanStarted(1, kDownOp);
  c.audit.OnRoutesInstalled(
      kDownOp, {Route(0, 99, kA), Route(100, UINT64_MAX, kB)});
  c.audit.OnPlanFinished(1, kDownOp, /*aborted=*/false);
  EXPECT_TRUE(c.names.empty());
}

TEST(AuditorLevelTest, LevelOffIgnoresViolatingStreams) {
  Collector c(kAuditOff);
  c.audit.OnRoutesInstalled(kDownOp, {});
  c.audit.OnTrim(kUp, kDownOp, 100, {kA});
  c.audit.OnCheckpointStored(kA, 4, kA, 4, 0);
  EXPECT_TRUE(c.names.empty());
  EXPECT_EQ(c.audit.violations(), 0u);
}

TEST(AuditorLevelTest, EnvironmentVariableOverridesDefaultLevel) {
  const char* saved = std::getenv("SEEP_AUDIT");
  const std::string restore = saved == nullptr ? "" : saved;
  ASSERT_EQ(setenv("SEEP_AUDIT", "2", /*overwrite=*/1), 0);
  EXPECT_EQ(DefaultAuditLevel(), kAuditExpensive);
  ASSERT_EQ(setenv("SEEP_AUDIT", "7", 1), 0);  // clamped
  EXPECT_EQ(DefaultAuditLevel(), kAuditExpensive);
  ASSERT_EQ(setenv("SEEP_AUDIT", "0", 1), 0);
  EXPECT_EQ(DefaultAuditLevel(), kAuditOff);
  if (saved == nullptr) {
    unsetenv("SEEP_AUDIT");
  } else {
    setenv("SEEP_AUDIT", restore.c_str(), 1);
  }
}

// ------------------------------------------------- mutation (death) tests

using AuditorDeathTest = ::testing::Test;

TEST(AuditorDeathTest, CorruptedTrimDecisionAborts) {
  // A trim tracker whose ack table was corrupted upward would claim a trim
  // beyond what downstream checkpoints cover; the default handler aborts.
  InvariantAuditor audit(kAuditCheap);
  audit.OnNoteSent(kUp, kDownOp, kA, 100);
  audit.OnTrimAck(kUp, kDownOp, kA, 40);
  EXPECT_DEATH(audit.OnTrim(kUp, kDownOp, 100, {kA}),
               "checkpoint-covers-trim");
}

TEST(AuditorDeathTest, RegressingTrimAborts) {
  InvariantAuditor audit(kAuditCheap);
  audit.OnNoteSent(kUp, kDownOp, kA, 100);
  audit.OnTrimAck(kUp, kDownOp, kA, 50);
  audit.OnTrim(kUp, kDownOp, 50, {kA});
  EXPECT_DEATH(audit.OnTrim(kUp, kDownOp, 40, {kA}), "trim-monotonicity");
}

TEST(AuditorDeathTest, ReorderedFenceAborts) {
  InvariantAuditor audit(kAuditCheap);
  audit.OnReplaySent(kA, kB, 5);
  audit.OnFenceSent(1, kA, kB);
  EXPECT_DEATH(audit.OnFenceProcessed(1, kA, kB), "fence-before-replay");
}

// --------------------------------------- audited cluster: smoke + mutation

class CountingSource : public core::SourceGenerator {
 public:
  explicit CountingSource(double rate) : rate_(rate) {}
  void GenerateBatch(SimTime now, SimTime dt,
                     core::Collector* emit) override {
    const double want = rate_ * SimToSeconds(dt) + carry_;
    const auto n = static_cast<size_t>(want);
    carry_ = want - static_cast<double>(n);
    for (size_t i = 0; i < n; ++i) {
      core::Tuple t;
      t.event_time = now;
      t.key = Mix64(counter_++ % 16);
      emit->Emit(std::move(t));
    }
  }
  double TargetRate(SimTime) const override { return rate_; }

 private:
  double rate_;
  double carry_ = 0;
  uint64_t counter_ = 0;
};

class PassThroughOperator : public core::Operator {
 public:
  void Process(const core::Tuple& input, core::Collector* out) override {
    core::Tuple t = input;
    out->Emit(std::move(t));
  }
  bool IsStateful() const override { return true; }
  double CostMicrosPerTuple() const override { return 10; }
  core::ProcessingState GetProcessingState() const override { return {}; }
  void SetProcessingState(const core::ProcessingState&) override {}
};

class NullSink : public core::SinkConsumer {
 public:
  void Consume(const core::Tuple&, SimTime) override {}
};

struct AuditedQuery {
  explicit AuditedQuery(int audit_level) {
    source = graph.AddSource("src", [](uint32_t, uint32_t) {
      return std::make_unique<CountingSource>(200);
    });
    op = graph.AddOperator(
        "pass", [] { return std::make_unique<PassThroughOperator>(); },
        /*stateful=*/true);
    sink = graph.AddSink("snk", [] { return std::make_unique<NullSink>(); });
    SEEP_CHECK(graph.Connect(source, op).ok());
    SEEP_CHECK(graph.Connect(op, sink).ok());
    runtime::ClusterConfig config;
    config.audit_level = audit_level;
    config.checkpoint_interval = SecondsToSim(2);
    cluster = std::make_unique<runtime::Cluster>(&graph, config);
    control::DeploymentManager deployer(cluster.get());
    SEEP_CHECK(deployer.DeployAll().ok());
  }

  core::QueryGraph graph;
  OperatorId source, op, sink;
  std::unique_ptr<runtime::Cluster> cluster;
};

TEST(AuditedClusterTest, AuditLevelZeroBuildsNoAuditor) {
  AuditedQuery q(kAuditOff);
  EXPECT_EQ(q.cluster->audit(), nullptr);
}

TEST(AuditedClusterTest, SmokeRunAtLevel2HasZeroViolations) {
  AuditedQuery q(kAuditExpensive);
  ASSERT_NE(q.cluster->audit(), nullptr);
  // The default abort handler is live: any violation would kill the test.
  q.cluster->simulation()->RunUntil(SecondsToSim(20));
  EXPECT_EQ(q.cluster->audit()->violations(), 0u);
}

TEST(AuditedClusterTest, CorruptedRouteInstallAborts) {
  AuditedQuery q(kAuditCheap);
  const InstanceId inst = q.cluster->LiveInstancesOf(q.op).at(0);
  // A coordinator installing a routing table with a key-space gap must be
  // stopped before any tuple routes into the void.
  EXPECT_DEATH(
      q.cluster->InstallRoutes(q.op, {{core::KeyRange{0, 100}, inst}}),
      "route-tiling");
}

}  // namespace
}  // namespace seep::verify
