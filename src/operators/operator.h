#ifndef KLINK_OPERATORS_OPERATOR_H_
#define KLINK_OPERATORS_OPERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/serialize.h"
#include "src/common/types.h"
#include "src/event/event.h"
#include "src/event/stream_queue.h"

namespace klink {

class Operator;

/// Notified when an operator has received the epoch-`epoch` checkpoint
/// barrier on every input stream (asynchronous barrier snapshotting): at
/// that instant all pre-barrier elements are reflected in the operator's
/// state and none of the post-barrier ones are, so the observer serializes
/// the operator synchronously before any post-barrier element is processed.
class BarrierObserver {
 public:
  virtual ~BarrierObserver() = default;
  virtual void OnBarrierAligned(Operator& op, uint64_t epoch) = 0;
};

/// Receives the output elements of an operator invocation. The engine wires
/// an Emitter that appends to the downstream operator's input queue.
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void Emit(const Event& e) = 0;

  /// Emits `n` elements in order. Batching emitters override this to
  /// append the whole run in one step; the default loops Emit.
  virtual void EmitRun(const Event* events, int64_t n) {
    for (int64_t i = 0; i < n; ++i) Emit(events[i]);
  }
};

/// Discards everything (used by sinks and tests).
class NullEmitter final : public Emitter {
 public:
  void Emit(const Event&) override {}
};

/// Collects outputs into a vector (used by tests).
class VectorEmitter final : public Emitter {
 public:
  void Emit(const Event& e) override { events.push_back(e); }
  std::vector<Event> events;
};

/// Supplies the per-element virtual timestamps of a batch drain, exactly
/// reproducing the scalar loop's accounting: each element advances consumed
/// virtual time by one fixed cost, and its timestamp is the cycle start
/// plus the consumption so far. Operator::OnDataRun overrides must advance
/// the clock exactly once per element, in element order — Next() for an
/// element whose timestamp they need, Advance(n) for a run that does not
/// read timestamps. The identical float-addition sequence is what keeps
/// batched results byte-identical to the scalar path.
class BatchClock {
 public:
  BatchClock(TimeMicros cycle_start, double consumed_micros,
             double cost_micros)
      : cycle_start_(cycle_start),
        consumed_(consumed_micros),
        cost_(cost_micros) {}

  /// Advances one element and returns its timestamp.
  TimeMicros Next() {
    consumed_ += cost_;
    return cycle_start_ + static_cast<TimeMicros>(consumed_);
  }

  /// Advances `n` elements (same accumulation as n Next() calls).
  void Advance(int64_t n) {
    for (int64_t i = 0; i < n; ++i) consumed_ += cost_;
  }

  /// Virtual micros consumed so far (cycle-relative).
  double consumed_micros() const { return consumed_; }

 private:
  const TimeMicros cycle_start_;
  double consumed_;
  const double cost_;
};

/// Base class of all stream operators.
///
/// An operator owns one input queue per input stream, processes one element
/// at a time, and emits zero or more elements. The engine charges
/// cost_per_event() of virtual CPU time per processed element and maintains
/// the per-operator runtime statistics (selectivity, queue size, memory)
/// that the schedulers' runtime-data-acquisition module collects (Sec. 3).
///
/// Watermark protocol: the base class tracks the last watermark per input
/// stream and calls OnWatermark only when the *minimum* watermark across all
/// inputs advances — the standard SPE rule that also governs windowed joins
/// (Sec. 3.3). Subclasses emit their outputs first and the base then forwards
/// the watermark, enforcing SWM invariant (ii) of Sec. 2.2.
class Operator {
 public:
  /// `cost_micros` is the virtual CPU time to process one element;
  /// `num_inputs` >= 1.
  Operator(std::string name, double cost_micros, int num_inputs = 1);
  virtual ~Operator();

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// Processes one element at virtual time `now`, emitting to `out`.
  /// The element's `stream` field selects the input it arrived on.
  void Process(const Event& e, TimeMicros now, Emitter& out);

  /// Processes `n` elements in order, advancing `clock` once per element.
  /// Semantically identical to calling Process(events[i], clock.Next(),
  /// out) for each element: control elements go through Process, and each
  /// maximal run of data elements is counted once and handed to OnDataRun,
  /// where hot operators pay their dispatch and emission overhead once per
  /// run instead of once per element (tests/batch_equivalence_test.cc
  /// checks outputs and counters against the scalar loop).
  void ProcessBatch(const Event* events, int64_t n, BatchClock& clock,
                    Emitter& out);

  /// ---- topology -----------------------------------------------------
  const std::string& name() const { return name_; }
  int num_inputs() const { return static_cast<int>(inputs_.size()); }
  StreamQueue& input(int stream = 0);
  const StreamQueue& input(int stream = 0) const;

  /// ---- runtime characteristics (tuple I, Sec. 3) --------------------
  /// Configured virtual CPU time per processed element.
  double cost_per_event() const { return cost_micros_; }

  /// Output/input data-event ratio. Falls back to the configured hint until
  /// enough elements were observed.
  double selectivity() const;

  /// Configured selectivity used before measurements exist (default 1.0).
  void set_selectivity_hint(double s) { selectivity_hint_ = s; }
  double selectivity_hint() const { return selectivity_hint_; }

  int64_t processed_data_count() const { return processed_data_; }
  int64_t emitted_data_count() const { return emitted_data_; }

  /// Total queued elements across inputs.
  int64_t QueuedEvents() const;
  /// Total queued bytes across inputs.
  int64_t QueuedBytes() const;
  /// Simulated bytes of operator-held state (window panes, join buffers).
  /// Maintained incrementally: subclasses report growth/shrink through
  /// AddStateBytes, which keeps this O(1).
  int64_t StateBytes() const { return state_bytes_; }
  /// Queue bytes + state bytes.
  int64_t MemoryBytes() const { return QueuedBytes() + StateBytes(); }

  /// Per-input-stream SWM progress bookkeeping, or nullptr for
  /// non-windowed operators (see window/swm_tracker.h).
  virtual const class SwmTracker* swm_tracker() const { return nullptr; }

  /// Earliest un-fired window deadline, or kNoTime for operators that do
  /// not block the stream on window deadlines (count windows included).
  /// For windowed operators this is the deadline the next SWM must
  /// elapse.
  virtual TimeMicros UpcomingDeadline() const { return kNoTime; }

  /// Correction elements (retractions + updates) this operator will emit at
  /// its next watermark because late arrivals dirtied retained panes.
  /// Downstream work the queues cannot see yet: the Klink policy adds it to
  /// a lane's drain cost as refire debt (allowed-lateness support,
  /// window/lateness.h). 0 for operators without retained state.
  virtual int64_t PendingRefires() const { return 0; }

  /// Last watermark timestamp seen on `stream`, or kNoTime.
  TimeMicros last_watermark(int stream = 0) const;

  /// Minimum last-watermark across inputs, or kNoTime if any input has not
  /// seen a watermark yet.
  TimeMicros MinWatermark() const;

  /// Number of watermarks forwarded downstream (epoch progress signal).
  int64_t forwarded_watermarks() const { return forwarded_watermarks_; }

  /// Minimum watermark most recently forwarded downstream, or kNoTime.
  /// Public read-only view for the invariant auditor (runtime/audit.h),
  /// which asserts it never regresses across cycles.
  TimeMicros forwarded_min_watermark_for_audit() const {
    return forwarded_min_watermark_;
  }

  /// ---- checkpointing (asynchronous barrier snapshots) ----------------
  /// Registers the observer called at barrier alignment (nullptr detaches).
  void SetBarrierObserver(BarrierObserver* observer) {
    barrier_observer_ = observer;
  }

  /// Epoch of the last checkpoint barrier seen on `stream` (0 = none yet).
  /// Read by the invariant auditor to check barrier monotonicity.
  uint64_t last_barrier_epoch(int stream = 0) const;

  /// Serializes the full operator state: base-class watermark/progress
  /// bookkeeping followed by the subclass SerializeState payload. Restore
  /// reads the same layout into a freshly constructed identical topology;
  /// subclasses re-apply state growth through AddStateBytes, so
  /// StateBytes() matches the restored state.
  void Serialize(StateWriter& w) const;
  void Restore(StateReader& r);

  /// ---- sharded execution ---------------------------------------------
  /// Operators that route their own output (exchange operators) return a
  /// non-null emitter here; the execution context then delivers outputs
  /// through it instead of the single-downstream-edge BatchEmitter. This is
  /// the seam that lets a partition exchange fan out to per-shard queues.
  virtual Emitter* inline_emitter() { return nullptr; }

 protected:
  /// Subclass hooks. Default OnData forwards; OnLatencyMarker forwards;
  /// OnWatermark does nothing extra. The base forwards the (minimum)
  /// watermark downstream after OnWatermark returns, emitting subclass
  /// outputs *before* the watermark (SWM invariant ii, Sec. 2.2).
  /// `incoming` is the watermark element that advanced the minimum;
  /// `min_watermark` is the new minimum across input streams.
  virtual void OnData(const Event& e, TimeMicros now, Emitter& out);
  virtual void OnWatermark(const Event& incoming, TimeMicros min_watermark,
                           TimeMicros now, Emitter& out);
  virtual void OnLatencyMarker(const Event& e, TimeMicros now, Emitter& out);

  /// Batch hook: processes a run of `n` data elements that ProcessBatch has
  /// already counted, advancing `clock` exactly once per element. The
  /// default calls OnData(e, clock.Next(), out) per element; operators
  /// with a cheaper per-run form override it.
  virtual void OnDataRun(const Event* events, int64_t n, BatchClock& clock,
                         Emitter& out);

  /// Late-data corrections (window/lateness.h). Retraction/update pairs
  /// originate at windowed operators when a late arrival lands inside the
  /// allowed-lateness horizon; intermediate operators forward them
  /// unchanged by default (they are keyed elements — exchanges route and
  /// canonically merge them) and the sink folds them into results_hash.
  /// Windowed operators never receive them: the pipeline builder places at
  /// most one windowed stage per path (cascading windows are unsupported).
  virtual void OnRetraction(const Event& e, TimeMicros now, Emitter& out);
  virtual void OnUpdate(const Event& e, TimeMicros now, Emitter& out);

  /// Called for every non-late watermark arrival on any input stream,
  /// *before* the minimum-watermark check (so joins can track per-stream
  /// progress even when another stream holds the minimum back, Sec. 3.3).
  virtual void OnStreamWatermark(const Event& incoming, int stream);

  /// Checkpoint state hooks. Stateless operators (map, filter) keep the
  /// empty defaults; stateful ones write/read their window and state maps
  /// in a deterministic order (sorted keys where the container is
  /// unordered) so a restored operator is byte-identical to the original.
  virtual void SerializeState(StateWriter& w) const;
  virtual void RestoreState(StateReader& r);

  /// Emits a data element via `out` and maintains selectivity accounting.
  void EmitData(const Event& e, Emitter& out);

  /// Emits a run of data elements with one accounting update (equivalent
  /// to n EmitData calls). Used by OnDataRun overrides.
  void EmitDataRun(const Event* events, int64_t n, Emitter& out) {
    emitted_data_ += n;
    out.EmitRun(events, n);
  }

  /// Reports a change in operator-held state bytes. The only way state
  /// enters the memory accounting: StateBytes() derives from these deltas.
  void AddStateBytes(int64_t delta) { state_bytes_ += delta; }

  /// Called from OnWatermark to control the SWM flag on the watermark the
  /// base is about to forward. Window operators set true when the watermark
  /// fired at least one pane. When not called, the incoming flag propagates.
  void SetForwardSwm(bool swm) {
    forward_swm_override_ = true;
    forward_swm_value_ = swm;
  }

  /// Called from OnWatermark to swallow the incoming watermark instead of
  /// forwarding it (used by operators that take over watermark generation,
  /// Sec. 2.2 case ii). The minimum-watermark bookkeeping still advances.
  void SuppressWatermarkForward() { suppress_forward_ = true; }

  /// Minimum watermark most recently forwarded downstream, or kNoTime.
  TimeMicros forwarded_min_watermark() const {
    return forwarded_min_watermark_;
  }

 private:
  std::string name_;
  double cost_micros_;
  std::vector<StreamQueue> inputs_;
  std::vector<TimeMicros> last_watermark_;
  std::vector<uint64_t> last_barrier_epoch_;
  BarrierObserver* barrier_observer_ = nullptr;
  TimeMicros forwarded_min_watermark_ = kNoTime;
  int64_t forwarded_watermarks_ = 0;
  bool forward_swm_override_ = false;
  bool forward_swm_value_ = false;
  bool suppress_forward_ = false;
  int64_t processed_data_ = 0;
  int64_t emitted_data_ = 0;
  double selectivity_hint_ = 1.0;
  int64_t state_bytes_ = 0;
};

}  // namespace klink

#endif  // KLINK_OPERATORS_OPERATOR_H_
