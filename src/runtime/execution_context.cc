#include "src/runtime/execution_context.h"

#include <algorithm>
#include <cstdint>

#include "src/common/check.h"
#include "src/runtime/audit.h"
#include "src/runtime/batch_emitter.h"

namespace klink {
namespace {

/// Elements popped per ProcessBatch call. Bounds the pop scratch (and the
/// emit scratch at kMaxBatch x fan-out) while staying large enough that
/// per-batch overhead is negligible against per-element work.
constexpr int64_t kMaxBatch = 512;

}  // namespace

ExecutionContext::ExecutionContext(int slot)
    : slot_(slot), audit_(AuditEnabledFromEnv()) {}

void ExecutionContext::BeginCycle(double budget_micros, double cost_multiplier,
                                  TimeMicros cycle_start) {
  budget_micros_ = budget_micros;
  cost_multiplier_ = cost_multiplier;
  cycle_start_ = cycle_start;
  cycle_busy_micros_ = 0.0;
  cycle_processed_events_ = 0;
}

double ExecutionContext::RunRange(Query& query, int begin, int end,
                                  Egress* egress) {
  double consumed = 0.0;
  bool progressed = true;
  int64_t processed = 0;
  if (batch_.size() < static_cast<size_t>(kMaxBatch)) {
    batch_.resize(static_cast<size_t>(kMaxBatch));
  }
  // Repeated topological sweeps: a sweep cascades events downstream; any
  // leftover upstream work (budget permitting) is picked up by the next
  // sweep. Stops when the budget is exhausted or all queues drained.
  while (progressed) {
    progressed = false;
    for (int i = begin; i < end; ++i) {
      Operator& op = query.op(i);
      const Query::Edge& edge = query.edge(i);
      // Topological order puts every downstream operator after its
      // upstream, so an edge leaves the range exactly when it ends past it.
      const bool leaves = egress != nullptr && edge.downstream >= end;
      StreamQueue* downstream_queue =
          edge.downstream == -1
              ? nullptr
              : &query.op(edge.downstream).input(edge.downstream_stream);
      BatchEmitter batch_emitter(downstream_queue, edge.downstream_stream,
                                 &emit_scratch_);
      // Exchange operators route through their own inline emitter (fan-out
      // to per-shard queues); everything else appends to the single
      // downstream edge via the buffering BatchEmitter.
      Emitter* const inline_emitter = op.inline_emitter();
      Emitter& emitter =
          inline_emitter != nullptr ? *inline_emitter : batch_emitter;
      const double cost =
          std::max(0.01, op.cost_per_event() * cost_multiplier_);
      // Outputs that leave the range ship per element, at that element's
      // completion time, so such an operator drains batches of one.
      const int64_t max_batch = leaves ? 1 : kMaxBatch;
      while (true) {
        // Size the batch by replaying the per-element budget additions
        // (admit while consumed + cost <= budget): the same floats added in
        // the same order, so the batch ends exactly where a per-element
        // loop would stop.
        const int64_t avail = std::min(op.QueuedEvents(), max_batch);
        int64_t fit = 0;
        double replay = consumed;
        while (fit < avail && replay + cost <= budget_micros_) {
          replay += cost;
          ++fit;
        }
        if (fit == 0) break;
        const int64_t n = SelectBatch(op, fit);
        if (n == 0) break;  // every queued element is behind a barrier
        BatchClock clock(cycle_start_, consumed, cost);
        op.ProcessBatch(batch_.data(), n, clock, emitter);
        consumed = clock.consumed_micros();
        if (leaves && !emit_scratch_.empty()) {
          egress->Ship(query.id(), edge.downstream,
                       cycle_start_ + static_cast<TimeMicros>(consumed),
                       emit_scratch_);
          emit_scratch_.clear();
        }
        batch_emitter.Flush();
        processed += n;
        progressed = true;
      }
      if (consumed + 0.01 > budget_micros_) {
        progressed = false;
        break;
      }
    }
  }
  if (audit_) {
    // Strict cycle-grained scheduling: the drain never overruns the armed
    // budget, and the drained queues' incremental accounting and cached
    // front time still match the stored events (the batched paths are the
    // likeliest drift source).
    KLINK_CHECK_LE(consumed, budget_micros_ + 1e-6);
    KLINK_CHECK_GE(processed, 0);
    // Only the swept range's queues: sibling shard lanes may be draining
    // concurrently on other slots, so their queues are not ours to walk.
    for (int i = begin; i < end; ++i) {
      const Operator& op = query.op(i);
      for (int s = 0; s < op.num_inputs(); ++s) {
        const StreamQueue& in = op.input(s);
        KLINK_CHECK_EQ(in.bytes(), in.AuditRecomputeBytes());
        KLINK_CHECK_EQ(in.OldestIngestTime(),
                       in.AuditRecomputeOldestIngestTime());
      }
    }
  }
  busy_micros_ += consumed;
  processed_events_ += processed;
  cycle_busy_micros_ += consumed;
  cycle_processed_events_ += processed;
  return consumed;
}

int64_t ExecutionContext::SelectBatch(Operator& op, int64_t max_n) {
  if (op.num_inputs() == 1) {
    // A unary operator pops its single input FIFO: one contiguous run.
    const int64_t got = op.input(0).PopBatch(batch_.data(), max_n);
    for (int64_t k = 0; k < got; ++k) batch_[k].stream = 0;
    return got;
  }
  // Multi-input operators (joins, shard merges) interleave their inputs by
  // earliest ingest time, the lowest stream winning ties, one element at a
  // time. Checkpoint barrier alignment (Flink-style): an input whose
  // barrier already arrived for an epoch the others have not reached is
  // blocked, because its post-barrier elements must not enter operator
  // state before the snapshot is taken at alignment. Processing a barrier
  // is the only thing that changes which inputs are blocked, so selecting
  // one advances its input's epoch here, before the next pick.
  const int num_inputs = op.num_inputs();
  epochs_.resize(static_cast<size_t>(num_inputs));
  uint64_t min_epoch = UINT64_MAX;
  for (int s = 0; s < num_inputs; ++s) {
    epochs_[s] = op.last_barrier_epoch(s);
    min_epoch = std::min(min_epoch, epochs_[s]);
  }
  int64_t n = 0;
  while (n < max_n) {
    int best = -1;
    TimeMicros best_time = 0;
    for (int s = 0; s < num_inputs; ++s) {
      const StreamQueue& in = op.input(s);
      if (in.empty() || epochs_[s] > min_epoch) continue;
      const TimeMicros t = in.OldestIngestTime();
      if (best == -1 || t < best_time) {
        best = s;
        best_time = t;
      }
    }
    if (best == -1) break;
    Event& e = batch_[n++];
    e = op.input(best).Pop();
    e.stream = best;
    if (e.is_barrier()) {
      epochs_[best] = e.barrier_epoch();
      min_epoch = *std::min_element(epochs_.begin(), epochs_.end());
    }
  }
  return n;
}

}  // namespace klink
