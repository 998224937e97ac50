#include "verify/invariant_auditor.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace seep::verify {

int DefaultAuditLevel() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at startup, before
  // any worker thread exists; nothing in the process calls setenv.
  if (const char* env = std::getenv("SEEP_AUDIT"); env != nullptr) {
    const int level = std::atoi(env);
    return std::clamp(level, 0, 2);
  }
#ifdef SEEP_AUDIT_DEFAULT_LEVEL
  return SEEP_AUDIT_DEFAULT_LEVEL;
#else
  return kAuditOff;
#endif
}

InvariantAuditor::InvariantAuditor(int level) : level_(level) {
  handler_ = [](const Violation& v) {
    std::fprintf(stderr, "SEEP_AUDIT violation %s: %s\n",
                 v.invariant.c_str(), v.detail.c_str());
    std::abort();
  };
}

void InvariantAuditor::Fail(const std::string& invariant,
                            std::string detail) {
  ++violations_;
  handler_(Violation{invariant, std::move(detail)});
}

// --------------------------------------------------- Algorithm 1: trimming

void InvariantAuditor::OnNoteSent(InstanceId at, OperatorId down_op,
                                  InstanceId dest, int64_t timestamp) {
  if (level_ < kAuditCheap) return;
  auto [it, inserted] =
      sent_[{at, down_op}].try_emplace(dest, timestamp);
  if (!inserted) it->second = std::max(it->second, timestamp);
}

void InvariantAuditor::OnTrimAck(InstanceId at, OperatorId down_op,
                                 InstanceId down_inst, int64_t position) {
  if (level_ < kAuditCheap) return;
  auto [it, inserted] =
      acks_[{at, down_op}].try_emplace(down_inst, position);
  if (!inserted) it->second = std::max(it->second, position);
}

void InvariantAuditor::OnSeedAck(InstanceId at, OperatorId down_op,
                                 InstanceId down_inst, int64_t position) {
  if (level_ < kAuditCheap) return;
  // Seeding overwrites: a restored replacement's position derives from the
  // checkpoint it was restored from, not from this link's history. Its id is
  // fresh (never reused), so a seed never rewinds a live acknowledgement.
  acks_[{at, down_op}][down_inst] = position;
}

int64_t InvariantAuditor::AllowedTrimBound(
    InstanceId at, OperatorId down_op,
    const std::vector<InstanceId>& current) const {
  // Mirror of TrimTracker::MaybeTrim's bound (Algorithm 1 line 4): the
  // furthest position every current partition with outstanding tuples has
  // acknowledged; when nothing is outstanding anywhere, everything sent so
  // far is checkpoint-covered.
  const auto acks_it = acks_.find({at, down_op});
  const auto sent_it = sent_.find({at, down_op});
  static const std::map<InstanceId, int64_t> kEmpty;
  const auto& acks = acks_it == acks_.end() ? kEmpty : acks_it->second;
  const auto& sent = sent_it == sent_.end() ? kEmpty : sent_it->second;
  auto lookup = [](const std::map<InstanceId, int64_t>& table,
                   InstanceId id) {
    auto it = table.find(id);
    return it == table.end() ? INT64_MIN : it->second;
  };
  int64_t bound = INT64_MAX;
  int64_t max_sent = INT64_MIN;
  for (InstanceId inst : current) {
    const int64_t s = lookup(sent, inst);
    const int64_t a = lookup(acks, inst);
    max_sent = std::max(max_sent, s);
    if (s > a) bound = std::min(bound, a);
  }
  return bound == INT64_MAX ? max_sent : bound;
}

void InvariantAuditor::OnTrim(InstanceId at, OperatorId down_op,
                              int64_t up_to,
                              const std::vector<InstanceId>& current) {
  if (level_ < kAuditCheap) return;
  const PeerKey key{at, down_op};
  if (auto it = last_trim_.find(key);
      it != last_trim_.end() && up_to < it->second) {
    std::ostringstream msg;
    msg << "instance " << at << " trim for op " << down_op
        << " regressed from " << it->second << " to " << up_to
        << " (a regressing trim bound implies an earlier trim dropped "
           "tuples that were not yet covered)";
    Fail("trim-monotonicity", msg.str());
    return;
  }
  const int64_t allowed = AllowedTrimBound(at, down_op, current);
  if (up_to > allowed) {
    std::ostringstream msg;
    msg << "instance " << at << " trims output buffer for op " << down_op
        << " through " << up_to << " but downstream checkpoints only cover "
        << allowed << " (Algorithm 1 line 4: a failure now would need "
           "tuples the trim just discarded)";
    Fail("checkpoint-covers-trim", msg.str());
    return;
  }
  last_trim_[key] = up_to;
}

void InvariantAuditor::OnCheckpointStored(InstanceId owner, VmId owner_vm,
                                          InstanceId holder, VmId holder_vm,
                                          uint64_t seq) {
  if (level_ < kAuditCheap) return;
  if (holder == owner || holder_vm == owner_vm) {
    std::ostringstream msg;
    msg << "checkpoint of instance " << owner << " (VM " << owner_vm
        << ") stored at instance " << holder << " (VM " << holder_vm
        << "): backup and primary share a failure domain";
    Fail("backup-placement", msg.str());
    return;
  }
  if (auto it = last_stored_seq_.find(owner);
      it != last_stored_seq_.end() && seq <= it->second) {
    std::ostringstream msg;
    msg << "instance " << owner << " stored checkpoint seq " << seq
        << " after seq " << it->second
        << " (a stale checkpoint must never supersede a fresher one)";
    Fail("checkpoint-seq-monotonicity", msg.str());
    return;
  }
  if (suspended_.count(owner) != 0) {
    std::ostringstream msg;
    msg << "checkpoint seq " << seq << " of instance " << owner
        << " stored while the owner's checkpointing is suspended (its trim "
           "acks would drop tuples the coordinator's restore point needs)";
    Fail("no-store-while-suspended", msg.str());
    return;
  }
  if (aborted_ckpts_.count({owner, seq}) != 0) {
    std::ostringstream msg;
    msg << "checkpoint seq " << seq << " of instance " << owner
        << " was stored after the pipeline aborted it (an aborted async "
           "checkpoint must never reach the backup store)";
    Fail("aborted-checkpoint-stored", msg.str());
    return;
  }
  if (durable_) {
    auto it = durable_seq_.find(owner);
    if (it == durable_seq_.end() || it->second < seq) {
      std::ostringstream msg;
      msg << "checkpoint seq " << seq << " of instance " << owner
          << " stored (and about to trigger trim acks) without a durable "
             "append covering it (durable log has "
          << (it == durable_seq_.end() ? std::string("nothing")
                                       : "seq " + std::to_string(it->second))
          << ")";
      Fail("durable-log-covers-trim", msg.str());
      return;
    }
  }
  last_stored_seq_[owner] = seq;
}

// ------------------------------------------------ durable checkpoint log

void InvariantAuditor::SetDurableMode(bool durable) { durable_ = durable; }

void InvariantAuditor::OnDurableAppend(InstanceId owner, uint64_t seq) {
  if (level_ < kAuditCheap) return;
  if (durable_tombstoned_.count(owner) != 0) {
    std::ostringstream msg;
    msg << "durable append of seq " << seq << " for instance " << owner
        << " after its tombstone (instance ids are never reused, so a "
           "tombstoned owner can never store again)";
    Fail("index-matches-log", msg.str());
    return;
  }
  auto it = durable_seq_.find(owner);
  if (it != durable_seq_.end() && seq <= it->second) {
    std::ostringstream msg;
    msg << "durable append of seq " << seq << " for instance " << owner
        << " after seq " << it->second << " was already appended";
    Fail("index-matches-log", msg.str());
    return;
  }
  durable_seq_[owner] = seq;
}

void InvariantAuditor::OnDurableTombstone(InstanceId owner) {
  if (level_ < kAuditCheap) return;
  durable_tombstoned_.insert(owner);
  durable_seq_.erase(owner);
}

void InvariantAuditor::OnDurableIndexState(InstanceId owner, bool present,
                                           uint64_t seq) {
  if (level_ < kAuditCheap) return;
  const auto it = durable_seq_.find(owner);
  const bool expect_present = it != durable_seq_.end();
  if (present != expect_present ||
      (present && expect_present && seq != it->second)) {
    std::ostringstream msg;
    msg << "durable index view of instance " << owner << " is "
        << (present ? "seq " + std::to_string(seq) : std::string("absent"))
        << " but the append stream replays "
        << (expect_present ? "seq " + std::to_string(it->second)
                           : std::string("absent"));
    Fail("index-matches-log", msg.str());
  }
}

void InvariantAuditor::OnDurableIndexDivergence(const std::string& detail) {
  if (level_ < kAuditCheap) return;
  Fail("index-matches-log", detail);
}

// --------------------------------------- asynchronous checkpoint pipeline

void InvariantAuditor::OnCheckpointsSuspended(InstanceId instance) {
  if (level_ < kAuditCheap) return;
  suspended_.insert(instance);
}

void InvariantAuditor::OnCheckpointsResumed(InstanceId instance) {
  if (level_ < kAuditCheap) return;
  suspended_.erase(instance);
  // A suspend/restore cycle may rewind the owner's checkpoint lineage, after
  // which an aborted sequence number is legitimately reused by a fresh
  // checkpoint. The abort markers therefore only cover the suspension
  // window — exactly the window in which an aborted frame could still leak
  // through the pipeline.
  for (auto it = aborted_ckpts_.lower_bound({instance, 0});
       it != aborted_ckpts_.end() && it->first == instance;) {
    it = aborted_ckpts_.erase(it);
  }
}

void InvariantAuditor::OnAsyncCheckpointAborted(InstanceId owner,
                                                uint64_t seq) {
  if (level_ < kAuditCheap) return;
  aborted_ckpts_.insert({owner, seq});
}

// ------------------------------------------- Algorithm 2: partitioned state

void InvariantAuditor::CheckTiling(
    OperatorId down_op, const std::vector<core::RoutingState::Route>& routes) {
  auto fail = [&](const std::string& what) {
    std::ostringstream msg;
    msg << "routes of op " << down_op << ": " << what << " (routes:";
    for (const auto& r : routes) {
      msg << " [" << r.range.lo << "," << r.range.hi << "]->" << r.instance;
    }
    msg << ")";
    Fail("route-tiling", msg.str());
  };
  if (routes.empty()) {
    fail("empty route table");
    return;
  }
  std::vector<core::KeyRange> ranges;
  ranges.reserve(routes.size());
  for (const auto& r : routes) {
    if (r.instance == kInvalidInstance) {
      fail("route to invalid instance");
      return;
    }
    if (r.range.lo > r.range.hi) {
      fail("inverted range");
      return;
    }
    ranges.push_back(r.range);
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const core::KeyRange& a, const core::KeyRange& b) {
              return a.lo < b.lo;
            });
  if (ranges.front().lo != 0) {
    fail("key space does not start at 0");
    return;
  }
  for (size_t i = 1; i < ranges.size(); ++i) {
    if (ranges[i - 1].hi == UINT64_MAX ||
        ranges[i].lo != ranges[i - 1].hi + 1) {
      fail(ranges[i].lo <= ranges[i - 1].hi ? "overlapping ranges"
                                            : "gap in key space");
      return;
    }
  }
  if (ranges.back().hi != UINT64_MAX) {
    fail("key space does not end at UINT64_MAX");
    return;
  }
}

void InvariantAuditor::OnRoutesInstalled(
    OperatorId down_op, const std::vector<core::RoutingState::Route>& routes) {
  if (level_ < kAuditCheap) return;
  CheckTiling(down_op, routes);
  routes_[down_op] = routes;
  if (level_ >= kAuditExpensive) {
    // Whole-table sweep: one operator's install must not have invalidated
    // any other operator's tiling (it cannot in the current single-threaded
    // runtime; the sweep is the tripwire for future concurrent installs).
    for (const auto& [op, table] : routes_) {
      if (op != down_op) CheckTiling(op, table);
    }
  }
}

void InvariantAuditor::OnPartitioned(
    const core::StateCheckpoint& base,
    const std::vector<core::StateCheckpoint>& parts) {
  if (level_ < kAuditCheap) return;
  auto fail = [&](const std::string& what) {
    std::ostringstream msg;
    msg << "partitioning checkpoint of instance " << base.instance << " (op "
        << base.op << ", range [" << base.key_range.lo << ","
        << base.key_range.hi << "]) into " << parts.size()
        << " parts: " << what;
    Fail("partition-completeness", msg.str());
  };
  if (parts.empty()) {
    fail("no partitions");
    return;
  }
  // The partition ranges must exactly tile the base range.
  std::vector<core::KeyRange> ranges;
  ranges.reserve(parts.size());
  for (const auto& p : parts) ranges.push_back(p.key_range);
  std::sort(ranges.begin(), ranges.end(),
            [](const core::KeyRange& a, const core::KeyRange& b) {
              return a.lo < b.lo;
            });
  if (ranges.front().lo != base.key_range.lo ||
      ranges.back().hi != base.key_range.hi) {
    fail("partition ranges do not span the base range");
    return;
  }
  for (size_t i = 1; i < ranges.size(); ++i) {
    if (ranges[i - 1].hi == UINT64_MAX ||
        ranges[i].lo != ranges[i - 1].hi + 1) {
      fail("partition ranges do not tile the base range");
      return;
    }
  }
  // Every processing-state entry must land in exactly the partition whose
  // range contains its key: conservation of entry count plus per-partition
  // range membership implies the exact split (Algorithm 2 line 5).
  size_t entries = 0;
  for (const auto& p : parts) {
    for (const auto& [key, value] : p.processing.entries()) {
      if (!p.key_range.Contains(key)) {
        std::ostringstream what;
        what << "entry with key " << key << " landed in partition ["
             << p.key_range.lo << "," << p.key_range.hi << "]";
        fail(what.str());
        return;
      }
    }
    entries += p.processing.size();
  }
  if (entries != base.processing.size()) {
    std::ostringstream what;
    what << "processing-state entries not conserved: base "
         << base.processing.size() << ", partitions " << entries;
    fail(what.str());
    return;
  }
  // Buffer tuples are conserved across the split (Algorithm 2 line 7 assigns
  // the buffer to the first partition in the current implementation; the
  // audit only requires that none are lost or duplicated).
  size_t buffered = 0;
  for (const auto& p : parts) buffered += p.buffer.TotalTuples();
  if (buffered != base.buffer.TotalTuples()) {
    std::ostringstream what;
    what << "buffered tuples not conserved: base "
         << base.buffer.TotalTuples() << ", partitions " << buffered;
    fail(what.str());
    return;
  }
}

// ------------------------------------------- Algorithm 3: replay + fences

void InvariantAuditor::OnReplaySent(InstanceId from, InstanceId to,
                                    uint64_t tuples) {
  if (level_ < kAuditCheap) return;
  replay_sent_[{from, to}] += tuples;
}

void InvariantAuditor::OnFenceSent(uint64_t fence_id, InstanceId from,
                                   InstanceId to) {
  if (level_ < kAuditCheap) return;
  fence_snapshots_[{fence_id, {from, to}}] =
      FenceSnapshot{replay_sent_[{from, to}]};
}

void InvariantAuditor::OnReplayProcessed(InstanceId from, InstanceId to,
                                         uint64_t tuples) {
  if (level_ < kAuditCheap) return;
  replay_processed_[{from, to}] += tuples;
}

void InvariantAuditor::OnFenceProcessed(uint64_t fence_id, InstanceId from,
                                        InstanceId to) {
  if (level_ < kAuditCheap) return;
  const auto it = fence_snapshots_.find({fence_id, {from, to}});
  if (it == fence_snapshots_.end()) return;  // forwarded fence, no replay
  const uint64_t expected = it->second.replay_sent_at_fence;
  const uint64_t processed = replay_processed_[{from, to}];
  if (processed < expected) {
    std::ostringstream msg;
    msg << "fence " << fence_id << " processed at instance " << to
        << " after only " << processed << " of " << expected
        << " replayed tuples from instance " << from
        << " (the fence overtook the replay; the drain proof is void)";
    Fail("fence-before-replay", msg.str());
    return;
  }
  fence_snapshots_.erase(it);
}

// --------------------------------------------- reconfiguration plane

void InvariantAuditor::OnPlanStarted(uint64_t plan_id, OperatorId op) {
  if (level_ < kAuditCheap) return;
  if (auto it = active_plan_of_op_.find(op);
      it != active_plan_of_op_.end()) {
    std::ostringstream msg;
    msg << "plan " << plan_id << " started for op " << op << " while plan "
        << it->second << " is still reconfiguring it";
    Fail("one-plan-per-operator", msg.str());
  }
  active_plan_of_op_[op] = plan_id;
  PlanMirror& mirror = plans_[plan_id];
  mirror.op = op;
  if (auto it = routes_.find(op); it != routes_.end()) {
    mirror.had_routes = true;
    mirror.routes_at_start = it->second;
  }
}

void InvariantAuditor::OnPlanVmAcquired(uint64_t plan_id, VmId vm) {
  if (level_ < kAuditCheap) return;
  auto it = plans_.find(plan_id);
  if (it == plans_.end()) return;  // grant landed after the plan finished
  it->second.outstanding_vms.insert(vm);
}

void InvariantAuditor::OnPlanVmDisposed(uint64_t plan_id, VmId vm) {
  if (level_ < kAuditCheap) return;
  auto it = plans_.find(plan_id);
  if (it == plans_.end()) return;
  it->second.outstanding_vms.erase(vm);
}

void InvariantAuditor::OnPlanSuspendedCheckpoints(uint64_t plan_id,
                                                  InstanceId instance) {
  if (level_ < kAuditCheap) return;
  auto it = plans_.find(plan_id);
  if (it == plans_.end()) return;
  it->second.suspended.insert(instance);
}

void InvariantAuditor::OnInstanceDead(InstanceId instance) {
  if (level_ < kAuditCheap) return;
  dead_instances_.insert(instance);
}

void InvariantAuditor::OnPlanFinished(uint64_t plan_id, OperatorId op,
                                      bool aborted) {
  if (level_ < kAuditCheap) return;
  auto it = plans_.find(plan_id);
  if (it == plans_.end()) return;
  const PlanMirror& mirror = it->second;

  // Every VM the plan acquired must have been consumed by a deployment or
  // released back to the provider — on commit AND on abort.
  if (!mirror.outstanding_vms.empty()) {
    std::ostringstream msg;
    msg << "plan " << plan_id << " (op " << op << ", "
        << (aborted ? "aborted" : "committed") << ") finished holding "
        << mirror.outstanding_vms.size() << " undisposed VM(s):";
    for (VmId vm : mirror.outstanding_vms) msg << " " << vm;
    Fail("no-leaked-vm", msg.str());
  }

  if (aborted) {
    // Every checkpoint schedule the plan froze must run again, unless the
    // instance died (its replacement starts a fresh schedule).
    for (InstanceId inst : mirror.suspended) {
      if (suspended_.contains(inst) && !dead_instances_.contains(inst)) {
        std::ostringstream msg;
        msg << "aborted plan " << plan_id << " (op " << op
            << ") left live instance " << inst
            << " with its checkpoint schedule suspended";
        Fail("checkpoints-resumed-after-abort", msg.str());
      }
    }

    // An aborted plan must leave the operator's routing exactly as it found
    // it — the compensations reinstalled the old routes (or never touched
    // them).
    const auto rit = routes_.find(op);
    const bool has_routes = rit != routes_.end();
    bool same = has_routes == mirror.had_routes;
    if (same && has_routes) {
      const auto& now = rit->second;
      const auto& before = mirror.routes_at_start;
      same = now.size() == before.size();
      for (size_t i = 0; same && i < now.size(); ++i) {
        same = now[i].range.lo == before[i].range.lo &&
               now[i].range.hi == before[i].range.hi &&
               now[i].instance == before[i].instance;
      }
    }
    if (!same) {
      std::ostringstream msg;
      msg << "aborted plan " << plan_id << " (op " << op
          << ") left the operator's routing different from the table it "
             "started with";
      Fail("routes-restored-on-abort", msg.str());
    }
  }

  if (auto ait = active_plan_of_op_.find(op);
      ait != active_plan_of_op_.end() && ait->second == plan_id) {
    active_plan_of_op_.erase(ait);
  }
  plans_.erase(it);
}

// ------------------------------------------------ recovery: exactly-once

void InvariantAuditor::OnSinkDelivered(OperatorId sink_op,
                                       core::OriginId origin,
                                       int64_t timestamp) {
  if (level_ < kAuditExpensive) return;
  auto& stamps = sink_stamps_[{sink_op, origin}];
  if (!stamps.insert(timestamp).second) {
    std::ostringstream msg;
    msg << "sink op " << sink_op << " delivered stamp (origin " << origin
        << ", ts " << timestamp
        << ") twice: duplicate filtering failed across recovery";
    Fail("sink-exactly-once", msg.str());
  }
}

}  // namespace seep::verify
