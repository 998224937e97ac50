#ifndef SEEP_CORE_OPERATOR_H_
#define SEEP_CORE_OPERATOR_H_

#include <functional>
#include <memory>
#include <string>

#include "common/time.h"
#include "core/state.h"
#include "core/tuple.h"

namespace seep::core {

/// Sink for tuples emitted by an operator while processing. The runtime
/// routes emissions by key through the routing state and stamps timestamps
/// from the instance's logical clock — operators never see those mechanics.
class Collector {
 public:
  virtual ~Collector() = default;

  /// Emits a tuple on output port `port`. Ports are numbered by the order of
  /// QueryGraph::Connect calls from this operator (port 0 = first edge).
  /// `tuple.event_time` should be inherited from the triggering input for
  /// latency accounting; timestamp and origin are stamped by the runtime.
  virtual void EmitTo(int port, Tuple tuple) = 0;

  /// Emits on port 0 — the common single-downstream case. The tuple moves
  /// once, into EmitTo.
  void Emit(Tuple&& tuple) { EmitTo(0, std::move(tuple)); }
};

/// The paper's operator function fo (§2.2): deterministic, no externally
/// visible side effects, optionally stateful. Developers implement Process
/// plus the state translation hooks; everything else (checkpointing, backup,
/// partitioning, recovery) is done by the SPS through these hooks — the
/// paper's core idea of *externalising* operator state.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Processes one input tuple, possibly updating internal state and
  /// emitting output tuples.
  virtual void Process(const Tuple& input, Collector* out) = 0;

  /// True for operators with processing state (θo ≠ ∅).
  virtual bool IsStateful() const { return false; }

  /// get-processing-state(o) → θo (paper §3.1). Must return a consistent
  /// snapshot translated to key/value pairs. Stateless operators return
  /// empty state.
  ///
  /// Every full checkpoint calls this, once per checkpoint interval c per
  /// stateful instance, and at LRB scale it dominates the simulator's wall
  /// clock. It must not allocate per entry: encode every entry through one
  /// scratch serde::Encoder and Add its view() (the state copies the bytes
  /// into its arena), Reserve the result up front, and do not look up again
  /// the entry being iterated.
  virtual ProcessingState GetProcessingState() const { return {}; }

  /// set-processing-state: replaces internal state from a checkpointed θ.
  virtual void SetProcessingState(const ProcessingState& state) {}

  // ------------------------------------------------- incremental state

  /// Incremental checkpointing support (paper §3.2: "to reduce the size of
  /// checkpoints, it is also possible to use incremental checkpointing
  /// techniques [17]"). Operators that track which keys changed since the
  /// previous checkpoint return true and implement the two hooks below.
  virtual bool SupportsIncrementalState() const { return false; }

  /// State entries changed since the last TakeProcessingStateDelta /
  /// ClearStateDelta call, plus keys whose entries were removed entirely.
  /// Calling this clears the dirty tracking.
  virtual StateDelta TakeProcessingStateDelta() {
    return StateDelta{GetProcessingState(), {}};
  }

  /// Resets dirty tracking without producing a delta — called after a full
  /// checkpoint captured everything.
  virtual void ClearStateDelta() {}

  /// CPU cost to process one tuple on the reference core, in microseconds.
  /// This is the knob the simulator uses in place of real CPU burn.
  virtual double CostMicrosPerTuple() const { return 1.0; }

  /// Periodic callback for window-triggered emission (e.g. "output the word
  /// frequencies every 30 s"). Returns 0 to disable.
  virtual SimTime TimerInterval() const { return 0; }
  virtual void OnTimer(SimTime now, Collector* out) {}
};

/// Factory creating fresh operator instances; invoked for each partition
/// deployed during scale out and for each replacement during recovery.
using OperatorFactory = std::function<std::unique_ptr<Operator>()>;

/// Generates source tuples. Sources are special operators (paper §2.2:
/// "sources and sinks cannot fail"): the runtime calls GenerateBatch on a
/// fixed tick and routes the produced tuples downstream.
class SourceGenerator {
 public:
  virtual ~SourceGenerator() = default;

  /// Produces the tuples for simulated interval [now, now + dt). Keys and
  /// payloads are workload-specific; `emit` routes each tuple.
  virtual void GenerateBatch(SimTime now, SimTime dt, Collector* emit) = 0;

  /// Target input rate at `now` in tuples/second, for figure reporting.
  virtual double TargetRate(SimTime now) const = 0;
};

/// Creates the generator for one of `count` parallel source instances;
/// `index` lets implementations partition the offered load (the paper's
/// top-k workload uses 18 data sources).
using SourceFactory =
    std::function<std::unique_ptr<SourceGenerator>(uint32_t index,
                                                   uint32_t count)>;

/// Consumes result tuples. The runtime feeds every tuple reaching a sink
/// instance; implementations aggregate final answers and validate results.
class SinkConsumer {
 public:
  virtual ~SinkConsumer() = default;
  virtual void Consume(const Tuple& tuple, SimTime now) = 0;
};

using SinkFactory = std::function<std::unique_ptr<SinkConsumer>()>;

}  // namespace seep::core

#endif  // SEEP_CORE_OPERATOR_H_
