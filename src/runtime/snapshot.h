#ifndef KLINK_RUNTIME_SNAPSHOT_H_
#define KLINK_RUNTIME_SNAPSHOT_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"
#include "src/query/query.h"

namespace klink {

/// Progress of one input stream of one windowed operator, extracted from
/// its SwmTracker. One slack value is computed per StreamProgress and a
/// query's slack is the minimum over its streams (Sec. 3.3).
struct StreamProgress {
  /// Operator index within the query and input stream on that operator.
  int op_index = 0;
  int stream = 0;
  /// The operator's earliest un-fired window deadline.
  TimeMicros upcoming_deadline = kNoTime;
  /// Period between deadlines (assigner slide) — the SWM periodicity hint.
  DurationMicros deadline_period = 0;
  /// Completed epochs on this stream.
  int64_t epoch = 0;
  /// Open-epoch delay statistics (population D_n, Eqs. 3-4 first case).
  double current_mu = 0.0;
  double current_chi = 0.0;
  int64_t current_count = 0;
  /// Most recently finalized epoch statistics.
  double last_mu = 0.0;
  double last_chi = 0.0;
  bool has_finalized_epoch = false;
  /// Ingestion time of the watermark that closed the last epoch, and the
  /// deadline it swept.
  TimeMicros last_sweep_ingest = kNoTime;
  TimeMicros last_swept_deadline = kNoTime;
};

/// One schedulable unit of a query. Unsharded queries expose exactly one
/// lane with index -1 whose fields mirror the query-level aggregates, so
/// policies that iterate lanes see pre-sharding behavior unchanged.
/// Sharded queries expose one lane per Query::Lane: the stage-0 prefix
/// (sources + partition exchanges), one lane per shard, and the stage-2
/// suffix (merge + sink). Shard-granular policies rank and select these
/// independently; per-lane slack is the minimum over the lane's streams.
struct LaneInfo {
  /// Lane index usable with Selection::AddLane; -1 = whole query.
  int lane = -1;
  /// Pipeline stage (Query::Lane::stage); 0 for unsharded queries.
  int stage = 0;
  int64_t queued_events = 0;
  /// Ingestion time of the oldest element queued at the lane's operators.
  TimeMicros oldest_ingest = kNoTime;
  /// Expected virtual CPU time to drain the lane's queued events through
  /// the rest of the pipeline (the lane's share of drain_cost_micros).
  double drain_cost_micros = 0.0;
  /// The lane's share of QueryInfo::refire_debt_micros.
  double refire_debt_micros = 0.0;
  /// Subrange [streams_begin, streams_end) of QueryInfo::streams holding
  /// this lane's window progress entries. Contiguous because lanes cover
  /// contiguous operator ranges and streams are collected in op order.
  int streams_begin = 0;
  int streams_end = 0;
};

/// Everything the runtime data acquisition module reports about one query —
/// the per-query slice of the tuple I consumed by KlinkEvaluator (Sec. 3)
/// and by the baseline policies.
struct QueryInfo {
  QueryId id = -1;
  /// Read-only view: the snapshot is consumed by policies (and, with the
  /// thread-pool executor, potentially inspected while workers are parked
  /// at the cycle barrier), so nothing downstream may mutate the query.
  const Query* query = nullptr;
  TimeMicros deploy_time = 0;
  /// Earliest upcoming window deadline across the query's windowed
  /// operators, kNoTime for windowless queries.
  TimeMicros upcoming_deadline = kNoTime;
  int64_t queued_events = 0;
  int64_t memory_bytes = 0;
  /// Ingestion time of the oldest queued element (FCFS), kNoTime if idle.
  TimeMicros oldest_ingest = kNoTime;
  /// cost^q(t): expected virtual CPU time to drain all queued events
  /// end-to-end, combining per-operator cost and selectivity (Sec. 3).
  double drain_cost_micros = 0.0;
  /// Pending-refire debt (allowed lateness, window/lateness.h): expected
  /// virtual CPU cost of the retraction+update correction elements that
  /// windowed operators will emit at their next watermark — invisible to
  /// queue-based drain cost until emission, yet certain to precede the
  /// sweep. Klink adds it to the drain cost before computing slack.
  double refire_debt_micros = 0.0;
  /// Expected end-to-end cost of a single source event (the ideal
  /// processing time used by the slowdown metric, Sec. 6.1.2).
  double unit_cost_micros = 0.0;
  /// HR priority: output productivity per unit processing time [48],
  /// scaled by how much of a scheduling quantum the queued work can fill
  /// (an empty path produces no output no matter its rate).
  double output_rate = 0.0;
  /// Per-stream window progress entries (empty for windowless queries).
  std::vector<StreamProgress> streams;
  /// Schedulable units: one {-1} entry for unsharded queries, one entry
  /// per Query::Lane for sharded ones.
  std::vector<LaneInfo> lanes;
  /// Per-operator arrays in topological order (for the memory manager).
  std::vector<int64_t> op_queued;
  std::vector<double> op_selectivity;
  std::vector<double> op_cost;
  std::vector<uint8_t> op_windowed;
  std::vector<uint8_t> op_partial;
};

/// The tuple I for all deployed queries at a scheduling cycle boundary.
struct RuntimeSnapshot {
  TimeMicros now = 0;
  /// Engine memory usage / capacity.
  double memory_utilization = 0.0;
  bool backpressured = false;
  std::vector<QueryInfo> queries;

  /// Ids removed since the previous cycle, ascending, so policies can
  /// release per-query state (Klink's estimators). Set by engine-built
  /// snapshots (Engine::BuildSnapshot); empty in hand-built ones.
  std::vector<QueryId> detached;
  /// id -> position in `queries`, maintained by the engine. May be empty
  /// for hand-built snapshots; Find falls back to a linear scan then.
  std::unordered_map<QueryId, int32_t> index;

  /// Entry for `id`, or nullptr when absent.
  const QueryInfo* Find(QueryId id) const;
};

/// Fills `info` from the live state of the operators [begin, end) of
/// `query` at virtual time `now` — a distributed node's share of the query.
/// The queue counts (op_queued and queued_events), memory, oldest ingest,
/// stream progress, upcoming deadline, drain cost, refire debt and lanes
/// cover only the range; the per-operator cost, selectivity and kind
/// arrays, unit_cost_micros and output_rate cover the whole query. Sharded
/// queries take only the full range. Reads exclusively through const
/// accessors — data acquisition must never perturb the state it observes.
void CollectQueryInfo(const Query& query, TimeMicros now, int begin, int end,
                      QueryInfo* info);

/// CollectQueryInfo over the whole query.
inline void CollectQueryInfo(const Query& query, TimeMicros now,
                             QueryInfo* info) {
  CollectQueryInfo(query, now, 0, query.num_operators(), info);
}

}  // namespace klink

#endif  // KLINK_RUNTIME_SNAPSHOT_H_
