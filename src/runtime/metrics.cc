#include "src/runtime/metrics.h"

#include "src/operators/aggregate_operator.h"
#include "src/operators/session_window_operator.h"
#include "src/operators/sink_operator.h"
#include "src/query/query.h"
#include "src/window/lateness.h"

namespace klink {

QueryLateMetrics CollectQueryLateMetrics(const Query& query) {
  QueryLateMetrics out;
  LateEventCounters ops;
  for (int i = 0; i < query.num_operators(); ++i) {
    const Operator& op = query.op(i);
    if (const auto* agg = dynamic_cast<const WindowAggregateOperator*>(&op)) {
      ops += agg->late_counters();
    } else if (const auto* sess =
                   dynamic_cast<const SessionWindowOperator*>(&op)) {
      ops += sess->late_counters();
    }
  }
  out.late_accepted = ops.late_accepted;
  out.late_dropped_beyond_horizon = ops.late_dropped_beyond_horizon;
  out.retractions_emitted = ops.retractions_emitted;
  out.updates_emitted = ops.updates_emitted;
  const SinkOperator& sink = query.sink();
  out.retractions_received = sink.retractions_received();
  out.unmatched_retractions = sink.unmatched_retractions();
  return out;
}

Histogram MergeSinkLatency(const std::vector<const Query*>& queries,
                           const Histogram& (SinkOperator::*which)() const) {
  Histogram h;
  for (const Query* q : queries) h.Merge((q->sink().*which)());
  return h;
}

}  // namespace klink
