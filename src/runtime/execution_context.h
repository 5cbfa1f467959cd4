#ifndef KLINK_RUNTIME_EXECUTION_CONTEXT_H_
#define KLINK_RUNTIME_EXECUTION_CONTEXT_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/event/event.h"
#include "src/query/query.h"

namespace klink {

/// Receives the outputs of an operator whose downstream operator lies
/// outside the operator range being drained — a cross-node edge of a
/// distributed query (dist/dist_engine.h).
class Egress {
 public:
  virtual ~Egress() = default;

  /// `events` go to operator `downstream` of query `query`, already
  /// stamped with their input stream there. One input element produced
  /// them, and its processing completed at virtual time `completed`.
  virtual void Ship(QueryId query, int downstream, TimeMicros completed,
                    const std::vector<Event>& events) = 0;
};

/// Per-slot execution state: one ExecutionContext per task slot (worker).
/// The executor arms the context for each scheduling cycle (BeginCycle)
/// and then drains the slot's assigned operator range against the armed
/// budget: a lane of a query on the engine, or a node's share of a query
/// on DistEngine, whose Egress takes the outputs that cross to another
/// node.
///
/// Threading contract: a context is owned by the one thread that claimed
/// its slot's task, between BeginCycle and the cycle barrier; the engine
/// reads its counters only after the barrier. Slot-parallel execution is
/// safe because each Query owns its operators and queues, so distinct
/// queries share no mutable state, and virtual time inside a slot depends
/// only on that slot's own consumption — which is what keeps both
/// executor kinds bit-identical.
class ExecutionContext {
 public:
  explicit ExecutionContext(int slot);

  /// Arms the slot for one scheduling cycle: the virtual-CPU budget, the
  /// memory-pressure cost multiplier, and the cycle's start of virtual
  /// time. Resets the per-cycle counters.
  void BeginCycle(double budget_micros, double cost_multiplier,
                  TimeMicros cycle_start);

  /// Drains the operators [begin, end) of `query` within the armed budget
  /// using repeated topological sweeps: a sweep cascades events
  /// downstream; leftover upstream work (budget permitting) is picked up
  /// by the next sweep. Returns the virtual micros consumed and updates
  /// the slot counters.
  ///
  /// Every operator drains in batches: each pass selects up to 512
  /// elements, sized by replaying the per-element budget additions, and
  /// hands them to one Operator::ProcessBatch call whose outputs flush
  /// downstream as one run. A unary operator selects a run of its input
  /// FIFO; a multi-input operator merges its inputs one element at a time
  /// by earliest ingest time (lowest stream on ties), skipping inputs
  /// blocked behind a checkpoint barrier. Selection order, virtual
  /// timestamps and consumed budget are those of a per-element loop, so
  /// results are byte-identical to it (DESIGN.md "Hot path").
  ///
  /// With an `egress`, an operator whose downstream operator lies outside
  /// the range drains batches of one and ships each element's outputs to
  /// the egress, stamped with that element's completion time. Without
  /// one, outputs always enter the downstream queue.
  double RunRange(Query& query, int begin, int end, Egress* egress = nullptr);

  /// Drains one lane of `query` (see Query::Lane); -1 drains every
  /// operator. Distinct lanes of one query touch disjoint operators and
  /// queues (the partition pushes into shard queues only from its own
  /// stage-0 lane, which the executor orders before the shard lanes), so
  /// lanes run concurrently on distinct slots.
  double RunQuery(Query& query, int lane = -1) {
    return lane == -1 ? RunRange(query, 0, query.num_operators())
                      : RunRange(query, query.lane(lane).begin,
                                 query.lane(lane).end);
  }

  int slot() const { return slot_; }
  double budget_micros() const { return budget_micros_; }
  double cost_multiplier() const { return cost_multiplier_; }

  /// Counters accumulated over the context's lifetime.
  double busy_micros() const { return busy_micros_; }
  int64_t processed_events() const { return processed_events_; }

  /// Counters for the most recent cycle (merged at the cycle barrier).
  double cycle_busy_micros() const { return cycle_busy_micros_; }
  int64_t cycle_processed_events() const { return cycle_processed_events_; }

 private:
  const int slot_;
  /// KLINK_AUDIT=1: RunRange self-checks its budget and queue accounting at
  /// drain end (see runtime/audit.h). Sampled once at construction.
  const bool audit_;
  double budget_micros_ = 0.0;
  double cost_multiplier_ = 1.0;
  TimeMicros cycle_start_ = 0;
  double busy_micros_ = 0.0;
  int64_t processed_events_ = 0;
  double cycle_busy_micros_ = 0.0;
  int64_t cycle_processed_events_ = 0;
  /// Pops up to `max_n` elements of `op`'s inputs into batch_ in drain
  /// order, each stamped with its input stream. Returns how many.
  int64_t SelectBatch(Operator& op, int64_t max_n);

  /// Per-slot scratch buffers for the batched drain (selected inputs,
  /// buffered outputs, and the per-input barrier epochs a multi-input
  /// selection advances). Slot-local, so thread-pool execution needs no
  /// synchronization around them.
  std::vector<Event> batch_;
  std::vector<Event> emit_scratch_;
  std::vector<uint64_t> epochs_;
};

}  // namespace klink

#endif  // KLINK_RUNTIME_EXECUTION_CONTEXT_H_
