#ifndef KLINK_RUNTIME_SNAPSHOT_H_
#define KLINK_RUNTIME_SNAPSHOT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/query/query.h"

namespace klink {

/// Progress of one input stream of one windowed operator, extracted from
/// its SwmTracker. One slack value is computed per StreamProgress and a
/// query's slack is the minimum over its streams (Sec. 3.3).
///
/// Eq. 2's periodicity term p^q has no field of its own: it is part of
/// each sweep's observed offset past its deadline (last_sweep_ingest −
/// last_swept_deadline), a population the estimator keeps together with
/// the network delay (klink/swm_estimator.cc).
struct StreamProgress {
  /// Operator index within the query and input stream on that operator.
  int op_index = 0;
  int stream = 0;
  /// The operator's earliest un-fired window deadline.
  TimeMicros upcoming_deadline = kNoTime;
  /// Completed epochs on this stream.
  int64_t epoch = 0;
  /// Open-epoch delay statistics (population D_n, Eqs. 3-4 first case).
  double current_mu = 0.0;
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

/// The stats of one schedulable unit: the whole query (lane -1), or one
/// Query::Lane of a sharded query — the stage-0 prefix (sources +
/// partition exchange), one lane per shard, and the stage-2 suffix (merge
/// + sink). Lane-granular policies rank units and select them with
/// Selection::Add(query, lane); a unit's slack is the minimum over its
/// streams.
struct LaneInfo {
  /// -1 for the whole query, otherwise a Query::Lane index.
  int lane = -1;
  int64_t queued_events = 0;
  /// Ingestion time of the oldest element queued at the unit's operators
  /// (FCFS), kNoTime if idle.
  TimeMicros oldest_ingest = kNoTime;
  /// cost^q(t): expected virtual CPU time to drain the unit's queued
  /// events through the rest of the pipeline, combining per-operator cost
  /// and selectivity (Sec. 3).
  double drain_cost_micros = 0.0;
  /// Pending-refire debt (allowed lateness, window/lateness.h): expected
  /// virtual CPU cost of the retraction+update correction elements that
  /// the unit's windowed operators will emit at their next watermark —
  /// invisible to queue-based drain cost until emission, yet certain to
  /// precede the sweep. Klink adds it to the drain cost before computing
  /// slack.
  double refire_debt_micros = 0.0;
  /// Subrange [streams_begin, streams_end) of QueryInfo::streams holding
  /// the unit's window progress entries. Contiguous because lanes cover
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
  /// Earliest upcoming window deadline across the query's windowed
  /// operators, kNoTime for windowless queries.
  TimeMicros upcoming_deadline = kNoTime;
  int64_t memory_bytes = 0;
  /// The whole-query unit (lane -1): queue, oldest ingest, drain cost and
  /// refire debt over the collected operators, and all of `streams`.
  /// Whole-query policies and memory-mode Klink read it; DistEngine merges
  /// the remote nodes' drain cost and streams into it.
  LaneInfo whole;
  /// One unit per Query::Lane of a sharded query; empty when unsharded.
  std::vector<LaneInfo> lanes;
  /// HR priority: the pipeline's output productivity per unit processing
  /// time [48], the product of the declared selectivities over the summed
  /// per-event cost. A property of the plan; readiness is QueryIsReady's.
  double output_rate = 0.0;
  /// Per-stream window progress entries (empty for windowless queries).
  std::vector<StreamProgress> streams;
  /// Per-operator arrays in topological order, for the memory plan. §3.4's
  /// partial computation has no flag of its own: an operator that folds
  /// events into state shows it as a measured selectivity below 1, which
  /// the plan's p_k = sz_k (1 − ∏ S_i) reads (klink/memory_manager.h).
  std::vector<int64_t> op_queued;
  std::vector<double> op_selectivity;
  std::vector<double> op_cost;
  /// Expected remaining end-to-end cost of one element queued at each
  /// operator. Held here so that re-collecting the same QueryInfo every
  /// cycle reuses its storage; Engine::MeanSlowdown reads it at a source
  /// for the ideal processing time of one event.
  std::vector<double> op_path_cost;

  /// The units lane-granular policies rank: the lanes of a sharded query,
  /// otherwise the whole query.
  std::span<const LaneInfo> units() const {
    return lanes.empty() ? std::span<const LaneInfo>(&whole, 1)
                         : std::span<const LaneInfo>(lanes);
  }
};

/// The tuple I for all deployed queries at a scheduling cycle boundary.
struct RuntimeSnapshot {
  TimeMicros now = 0;
  /// Engine memory usage / capacity.
  double memory_utilization = 0.0;
  bool backpressured = false;
  /// One entry per live query, in id order (QueryFabric::live()).
  std::vector<QueryInfo> queries;

  /// Ids retired since the previous cycle, in retirement order, so
  /// policies can release per-query state (Klink's estimators). Filled by
  /// the engine (Engine::OnQueryRetired); empty in hand-built snapshots.
  std::vector<QueryId> detached;

  /// Entry for `id`, or nullptr when absent. A linear scan.
  const QueryInfo* Find(QueryId id) const;
};

/// Fills `info` from the live state of the operators [begin, end) of
/// `query` — a distributed node's share of the query.
/// The queue counts (op_queued and the units), memory, oldest ingest,
/// stream progress, upcoming deadline, drain cost and refire debt cover
/// only the range; the per-operator cost, selectivity and path-cost arrays
/// and output_rate cover the whole query. Sharded queries take only the
/// full range. Reads exclusively through const accessors — data
/// acquisition must never perturb the state it observes.
void CollectQueryInfo(const Query& query, int begin, int end,
                      QueryInfo* info);

/// CollectQueryInfo over the whole query.
inline void CollectQueryInfo(const Query& query, QueryInfo* info) {
  CollectQueryInfo(query, 0, query.num_operators(), info);
}

}  // namespace klink

#endif  // KLINK_RUNTIME_SNAPSHOT_H_
