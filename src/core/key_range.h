#ifndef SEEP_CORE_KEY_RANGE_H_
#define SEEP_CORE_KEY_RANGE_H_

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/macros.h"

namespace seep::core {

/// A closed interval [lo, hi] of the hashed key space. Routing state maps
/// key ranges to partitioned operator instances (paper §3.1: routing state
/// ρo maps key intervals to downstream partitions). Closed intervals let the
/// full 64-bit space be representable.
struct KeyRange {
  KeyHash lo = 0;
  KeyHash hi = UINT64_MAX;

  static KeyRange Full() { return KeyRange{0, UINT64_MAX}; }

  bool Contains(KeyHash k) const { return lo <= k && k <= hi; }
  bool operator==(const KeyRange& other) const = default;

  /// Splits this range into `n` contiguous, non-overlapping subranges that
  /// exactly cover it. Hash partitioning assumes uniform keys, so even splits
  /// balance load (paper Algorithm 2: "the key space can be distributed
  /// evenly using hash partitioning").
  std::vector<KeyRange> SplitEven(uint32_t n) const;

  /// Merges two adjacent ranges (used by scale-in). Requires a.hi + 1 == b.lo.
  static KeyRange MergeAdjacent(const KeyRange& a, const KeyRange& b);
};

}  // namespace seep::core

#endif  // SEEP_CORE_KEY_RANGE_H_
