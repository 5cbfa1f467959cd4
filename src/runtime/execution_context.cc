#include "src/runtime/execution_context.h"

#include <algorithm>

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
      if (op.num_inputs() == 1 && !leaves) {
        // Batched fast path: a unary operator always pops its single
        // input FIFO, so the earliest-ingest scan is unnecessary and a
        // whole run can be popped, processed, and emitted at once.
        StreamQueue& in = op.input(0);
        while (true) {
          const int64_t avail = std::min(in.size(), kMaxBatch);
          // Size the batch by replaying the scalar loop's budget
          // additions: the same floats added in the same order, so the
          // batch ends exactly where the scalar loop would stop.
          int64_t n = 0;
          double replay = consumed;
          while (n < avail && replay + cost <= budget_micros_) {
            replay += cost;
            ++n;
          }
          if (n == 0) break;
          const int64_t got = in.PopBatch(batch_.data(), n);
          for (int64_t k = 0; k < got; ++k) batch_[k].stream = 0;
          BatchClock clock(cycle_start_, consumed, cost);
          op.ProcessBatch(batch_.data(), got, clock, emitter);
          consumed = clock.consumed_micros();
          batch_emitter.Flush();
          processed += got;
          progressed = true;
        }
      } else {
        // Multi-input operators (joins) interleave their inputs by
        // earliest ingest time; that per-element scan keeps the scalar
        // loop, with outputs still buffered and flushed as one run. So
        // does an operator whose outputs leave the range: each element's
        // outputs ship at that element's completion time.
        while (consumed + cost <= budget_micros_) {
          // Checkpoint barrier alignment (Flink-style): an input whose
          // barrier already arrived for an epoch the others have not
          // reached is blocked — its post-barrier elements must not enter
          // operator state before the snapshot is taken at alignment.
          uint64_t min_epoch = op.last_barrier_epoch(0);
          for (int s = 1; s < op.num_inputs(); ++s) {
            min_epoch = std::min(min_epoch, op.last_barrier_epoch(s));
          }
          int best = -1;
          TimeMicros best_time = 0;
          for (int s = 0; s < op.num_inputs(); ++s) {
            if (op.input(s).empty()) continue;
            if (op.last_barrier_epoch(s) > min_epoch) continue;  // blocked
            const TimeMicros t = op.input(s).Front().ingest_time;
            if (best == -1 || t < best_time) {
              best = s;
              best_time = t;
            }
          }
          if (best == -1) break;
          Event e = op.input(best).Pop();
          e.stream = best;
          consumed += cost;
          const TimeMicros now =
              cycle_start_ + static_cast<TimeMicros>(consumed);
          op.Process(e, now, emitter);
          if (leaves && !emit_scratch_.empty()) {
            egress->Ship(query.id(), edge.downstream, now, emit_scratch_);
            emit_scratch_.clear();
          }
          ++processed;
          progressed = true;
        }
        batch_emitter.Flush();
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

}  // namespace klink
