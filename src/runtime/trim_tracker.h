#ifndef SEEP_RUNTIME_TRIM_TRACKER_H_
#define SEEP_RUNTIME_TRIM_TRACKER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/ids.h"
#include "core/state.h"
#include "verify/invariant_auditor.h"

namespace seep::runtime {

/// Output-buffer trim bookkeeping of one operator instance (Algorithm 1
/// line 4): which downstream instances have acknowledged checkpoints through
/// which positions, and which have outstanding (sent but not yet
/// checkpoint-covered) tuples. Owns nothing but the two position tables; the
/// buffer it trims and the membership it consults are injected, so the trim
/// semantics are unit-testable without a cluster.
class TrimTracker {
 public:
  /// Returns the *current* partitions of a downstream logical operator
  /// (including stopped-but-not-finalised instances, whose frozen acks must
  /// keep constraining trims during the retirement handover window).
  using MembersFn = std::function<std::vector<InstanceId>(OperatorId)>;

  /// `audit` (may be null) observes every ack/sent/trim event and
  /// independently re-derives the admissible trim bound; `self` identifies
  /// this instance in audit reports.
  TrimTracker(core::BufferState* buffer, MembersFn current_members,
              verify::InvariantAuditor* audit = nullptr,
              InstanceId self = kInvalidInstance)
      : buffer_(buffer),
        current_members_(std::move(current_members)),
        audit_(audit),
        self_(self) {}

  /// Records the highest timestamp sent to a downstream instance. A
  /// destination only constrains buffer trimming while it has outstanding
  /// (sent > acked) tuples; destinations that never receive tuples from this
  /// partition (key-preserving operators route each upstream partition to
  /// few downstream partitions) must not block trims.
  void NoteSent(OperatorId down_op, InstanceId dest, int64_t timestamp);

  /// Downstream instance `down_instance` checkpointed through `position`;
  /// trim the output buffer when all current partitions of `down_op` have
  /// acknowledged (Algorithm 1 line 4).
  void OnTrimAck(OperatorId down_op, InstanceId down_instance,
                 int64_t position);

  /// Drops ack entries for instances no longer routed (after scale out /
  /// recovery replaced partitions).
  void PruneAcks(OperatorId down_op);

  /// Seeds the ack position of a freshly restored downstream instance from
  /// its restored checkpoint, so trimming can make progress.
  void SeedAck(OperatorId down_op, InstanceId down_instance,
               int64_t position);

  /// Trims the buffer for `down_op` to the furthest position every current
  /// partition with outstanding tuples has acknowledged.
  void MaybeTrim(OperatorId down_op);

 private:
  core::BufferState* buffer_;
  MembersFn current_members_;
  verify::InvariantAuditor* audit_;
  InstanceId self_;
  // Per downstream logical op: last checkpoint-acknowledged position of each
  // current downstream instance (this instance's origin timestamps).
  std::map<OperatorId, std::map<InstanceId, int64_t>> acks_;
  // Per downstream logical op: highest timestamp sent to each downstream
  // instance.
  std::map<OperatorId, std::map<InstanceId, int64_t>> sent_;
  // Per downstream logical op: high-water trim position. The admissible
  // bound can legitimately regress after a membership change (a partition
  // with nothing outstanding stops constraining it, then a freshly seeded
  // partition re-lowers it); re-trimming below the high-water mark is a
  // no-op on the buffer, so such bounds are suppressed rather than emitted.
  std::map<OperatorId, int64_t> trimmed_;
};

}  // namespace seep::runtime

#endif  // SEEP_RUNTIME_TRIM_TRACKER_H_
