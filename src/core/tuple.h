#ifndef SEEP_CORE_TUPLE_H_
#define SEEP_CORE_TUPLE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "serde/decoder.h"
#include "serde/encoder.h"

namespace seep::core {

/// Stable identity of a stream origin. Every operator instance's output
/// stream has an origin; timestamps are monotone per origin, which is what
/// lets downstream operators detect and discard duplicates after replay
/// (paper §3.2: "resets its logical clock ... so that downstream operators
/// can detect and discard duplicate tuples").
using OriginId = uint64_t;

inline constexpr OriginId kInvalidOrigin = 0;

/// The paper's tuple t = (τ, k, p) (§2.2), plus bookkeeping the evaluation
/// needs: the originating stream (for per-origin duplicate filtering) and
/// the source event time (for end-to-end latency measurement).
struct Tuple {
  /// Logical timestamp τ, assigned by the emitting instance's monotonically
  /// increasing logical clock.
  int64_t timestamp = 0;
  /// Partitioning key k (already hashed into the uniform key space).
  KeyHash key = 0;
  /// Stream origin that assigned `timestamp`.
  OriginId origin = kInvalidOrigin;
  /// Simulated time at which the source created the ancestor of this tuple;
  /// carried through operators so sinks can measure processing latency.
  SimTime event_time = 0;
  /// Payload p: workload-defined integer fields plus an optional text field
  /// (words, page titles). LRB uses only the integers.
  std::array<int64_t, 4> ints{};
  std::string text;
  /// Whether sinks should include this tuple in processing-latency metrics.
  /// Per-tuple results keep it true; periodic window emissions (whose
  /// event_time is the window close, not an input arrival) set it false so
  /// they don't masquerade as multi-second processing latencies.
  bool latency_sample = true;

  /// The one tuple writer: writes Encode()'s exactly SerializedSize() bytes
  /// at `p` and returns the advanced cursor. Batch and buffer encoders size
  /// one region for many tuples and call this per tuple.
  uint8_t* Write(uint8_t* p) const;
  void Encode(serde::Encoder* enc) const;

  /// The one tuple decoder: overwrites every field in place (the text keeps
  /// its capacity), so batch and buffer decoders fill their destination
  /// directly. Returns false on truncated or corrupt input.
  [[nodiscard]] bool DecodeFrom(serde::Decoder* dec);
  [[nodiscard]] static Result<Tuple> Decode(serde::Decoder* dec);

  /// Exact size of the Encode() output, without encoding. Drives the network
  /// cost model and serialisation CPU cost.
  size_t SerializedSize() const;

  /// An upper bound on SerializedSize() without its varint arithmetic, for
  /// a writer that sizes a region by it and learns the exact size from the
  /// cursor Write() returns: every varint at its 10-byte maximum
  /// (timestamp, key, origin, event_time, ints, text length, flag).
  size_t MaxSerializedSize() const {
    return 10 + 8 + 8 + 10 + 4 * 10 + 10 + 1 + text.size();
  }
};

/// A batch of tuples travelling on one edge of the execution graph. Batching
/// is an event-granularity optimisation only: every tuple is still applied to
/// state and routed by key individually.
struct TupleBatch {
  InstanceId from = kInvalidInstance;
  std::vector<Tuple> tuples;
  /// True when this batch is a replay of buffered tuples after a restore;
  /// replay batches bypass the admission-control drop path.
  bool replay = false;
  /// Non-zero marks a replay fence: an empty marker batch that follows the
  /// last replay batch on the same FIFO link. When the restored instance
  /// drains the fence, replay (and hence recovery) is complete. Fences that
  /// reach a non-target instance are forwarded downstream, which lets a
  /// source-replay fence travel through intermediate operators.
  uint64_t fence_id = 0;

  /// Wire codec for batches crossing a real transport (the simulated network
  /// only models sizes and never encodes). Encodes sender, flags and every
  /// tuple; Decode rejects truncated or corrupt input as Status rather than
  /// crashing, since batch frames arrive from the network.
  void Encode(serde::Encoder* enc) const;
  [[nodiscard]] static Result<TupleBatch> Decode(serde::Decoder* dec);

  size_t SerializedSize() const;
};

}  // namespace seep::core

#endif  // SEEP_CORE_TUPLE_H_
