#include "core/state_ops.h"

#include <algorithm>

#include "common/hash.h"

namespace seep::core {

InstanceId ChooseBackupInstance(InstanceId instance,
                                const std::vector<InstanceId>& upstream) {
  SEEP_CHECK(!upstream.empty());
  const uint64_t h = Mix64(instance);
  return upstream[h % upstream.size()];
}

[[nodiscard]] Result<std::vector<StateCheckpoint>> PartitionCheckpoint(
    const StateCheckpoint& checkpoint, uint32_t pi) {
  if (pi == 0) return Status::InvalidArgument("pi must be >= 1");
  return PartitionCheckpointByRanges(checkpoint,
                                     checkpoint.key_range.SplitEven(pi));
}

[[nodiscard]] Result<std::vector<StateCheckpoint>> PartitionCheckpointByRanges(
    const StateCheckpoint& checkpoint, const std::vector<KeyRange>& ranges) {
  if (ranges.empty()) return Status::InvalidArgument("no ranges");
  // Validate coverage: ranges must be sorted, contiguous, and span exactly
  // the checkpoint's range so no key can be lost or duplicated.
  if (ranges.front().lo != checkpoint.key_range.lo ||
      ranges.back().hi != checkpoint.key_range.hi) {
    return Status::InvalidArgument("ranges do not span checkpoint range");
  }
  for (size_t i = 1; i < ranges.size(); ++i) {
    if (ranges[i - 1].hi == UINT64_MAX ||
        ranges[i - 1].hi + 1 != ranges[i].lo) {
      return Status::InvalidArgument("ranges not contiguous");
    }
  }

  std::vector<StateCheckpoint> parts;
  parts.reserve(ranges.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    StateCheckpoint part;
    part.op = checkpoint.op;
    part.instance = kInvalidInstance;  // assigned at deployment
    part.origin = kInvalidOrigin;      // fresh origin assigned at restore
    part.key_range = ranges[i];
    part.seq = checkpoint.seq;
    part.taken_at = checkpoint.taken_at;
    // Algorithm 2 line 6: τi ← τ (positions copied to every partition).
    part.positions = checkpoint.positions;
    // Algorithm 2 line 5: θi ← {(k,v) ∈ θ : ki ≤ k < ki+1}.
    part.processing = checkpoint.processing.FilterByRange(ranges[i]);
    // Algorithm 2 line 7: the buffer state goes to the first partition; its
    // tuples carry the parent's origin and original timestamps, so replaying
    // them downstream remains duplicate-detectable. The first partition also
    // carries the parent's stream identity (origin + output clock) so that a
    // single-partition restore — serial recovery — re-emits under the parent
    // origin and downstream filters recognise the duplicates (§3.2).
    if (i == 0) {
      part.buffer = checkpoint.buffer;
      part.out_clock = checkpoint.out_clock;
      part.origin = checkpoint.origin;
    }
    parts.push_back(std::move(part));
  }
  return parts;
}

std::vector<KeyRange> BalancedSplitRanges(const StateCheckpoint& checkpoint,
                                          uint32_t pi) {
  SEEP_CHECK_GT(pi, 0u);
  const KeyRange range = checkpoint.key_range;
  // With few entries, quantiles are noise; even hash splitting is better.
  if (checkpoint.processing.size() < static_cast<size_t>(pi) * 8) {
    return range.SplitEven(pi);
  }
  // Entries are maintained sorted by key, so quantiles are direct reads —
  // no key copy, no per-split sort.
  const auto& entries = checkpoint.processing.entries();

  std::vector<KeyRange> ranges;
  ranges.reserve(pi);
  KeyHash lo = range.lo;
  for (uint32_t i = 1; i < pi; ++i) {
    // Cut just above the i-th pi-quantile entry so the entry itself lands in
    // the left partition.
    const size_t idx = entries.size() * i / pi;
    KeyHash cut = entries[idx].first;
    // Keep cuts strictly increasing and inside the range.
    if (cut < lo) cut = lo;
    if (cut >= range.hi) cut = range.hi - 1;
    ranges.push_back(KeyRange{lo, cut});
    lo = cut + 1;
  }
  ranges.push_back(KeyRange{lo, range.hi});
  // Degenerate cuts (duplicate quantiles) can produce inverted ranges;
  // fall back to the even split in that case.
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (ranges[i].lo > ranges[i].hi) return range.SplitEven(pi);
  }
  return ranges;
}

[[nodiscard]]
Status ApplyDelta(StateCheckpoint* base, const StateCheckpoint& delta) {
  if (!delta.is_delta) {
    return Status::InvalidArgument("not a delta checkpoint");
  }
  if (delta.base_seq != base->seq) {
    return Status::FailedPrecondition("delta base does not match stored seq");
  }
  if (delta.op != base->op || delta.instance != base->instance) {
    return Status::InvalidArgument("delta for a different instance");
  }

  // Replace/insert updated entries by key, drop deleted keys: a linear
  // two-pointer merge of the sorted base and delta — O(base + delta), no
  // intermediate map.
  base->processing.ApplyDelta(delta.processing, delta.deleted_keys);

  base->positions = delta.positions;
  base->out_clock = delta.out_clock;
  base->seq = delta.seq;
  base->taken_at = delta.taken_at;
  base->origin = delta.origin;
  base->key_range = delta.key_range;

  // Mirror the owner's buffer: trim to the owner's current front, then
  // append the tuples produced since the base checkpoint.
  for (const auto& [op_id, front] : delta.buffer_front) {
    base->buffer.Trim(op_id, front - 1);
  }
  for (const auto& [op_id, tuples] : delta.buffer.buffers()) {
    base->buffer.AppendFrom(op_id, tuples, 0);
  }
  return Status::OK();
}

[[nodiscard]] Result<StateCheckpoint> MergeCheckpoints(
    const std::vector<StateCheckpoint>& checkpoints) {
  if (checkpoints.empty()) return Status::InvalidArgument("nothing to merge");
  for (size_t i = 1; i < checkpoints.size(); ++i) {
    if (checkpoints[i].op != checkpoints[0].op) {
      return Status::InvalidArgument("merging different operators");
    }
    if (checkpoints[i - 1].key_range.hi == UINT64_MAX ||
        checkpoints[i - 1].key_range.hi + 1 != checkpoints[i].key_range.lo) {
      return Status::InvalidArgument("key ranges not adjacent");
    }
  }
  StateCheckpoint merged;
  merged.op = checkpoints[0].op;
  merged.instance = kInvalidInstance;
  merged.origin = kInvalidOrigin;
  merged.key_range = KeyRange{checkpoints.front().key_range.lo,
                              checkpoints.back().key_range.hi};
  merged.taken_at = checkpoints[0].taken_at;
  for (const StateCheckpoint& c : checkpoints) {
    merged.seq = std::max(merged.seq, c.seq);
    merged.taken_at = std::max(merged.taken_at, c.taken_at);
    merged.processing.MergeFrom(c.processing);
    // Quiesced capture: both partitions saw everything up to their
    // positions, so the union of coverage is the element-wise max.
    merged.positions.UpperBoundWith(c.positions);
    for (const auto& [op, tuples] : c.buffer.buffers()) {
      merged.buffer.AppendFrom(op, tuples, 0);
    }
  }
  return merged;
}

}  // namespace seep::core
