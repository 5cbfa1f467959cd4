#include "src/runtime/snapshot.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/window/swm_tracker.h"

namespace klink {

const QueryInfo* RuntimeSnapshot::Find(QueryId id) const {
  for (const QueryInfo& info : queries) {
    if (info.id == id) return &info;
  }
  return nullptr;
}

void CollectQueryInfo(const Query& query, int begin, int end,
                      QueryInfo* info) {
  KLINK_CHECK(info != nullptr);
  const int n = query.num_operators();
  KLINK_CHECK(0 <= begin && begin <= end && end <= n);
  KLINK_CHECK(!query.sharded() || (begin == 0 && end == n));
  info->id = query.id();
  info->query = &query;
  info->upcoming_deadline = kNoTime;

  info->op_queued.assign(static_cast<size_t>(n), 0);
  info->op_selectivity.assign(static_cast<size_t>(n), 1.0);
  info->op_cost.assign(static_cast<size_t>(n), 0.0);
  info->streams.clear();

  info->memory_bytes = 0;
  LaneInfo& whole = info->whole;
  whole = LaneInfo{};

  for (int i = 0; i < n; ++i) {
    const Operator& op = query.op(i);
    const size_t idx = static_cast<size_t>(i);
    info->op_selectivity[idx] = op.selectivity();
    info->op_cost[idx] = op.cost_per_event();
    if (i < begin || i >= end) continue;
    info->op_queued[idx] = op.QueuedEvents();
    whole.queued_events += info->op_queued[idx];
    info->memory_bytes += op.MemoryBytes();
    for (int s = 0; s < op.num_inputs(); ++s) {
      const TimeMicros oldest = op.input(s).OldestIngestTime();
      if (oldest == kNoTime) continue;
      whole.oldest_ingest = whole.oldest_ingest == kNoTime
                                ? oldest
                                : std::min(whole.oldest_ingest, oldest);
    }
    // kNoTime for every operator that is not a time window.
    const TimeMicros deadline = op.UpcomingDeadline();
    if (deadline != kNoTime && (info->upcoming_deadline == kNoTime ||
                                deadline < info->upcoming_deadline)) {
      info->upcoming_deadline = deadline;
    }
    if (const SwmTracker* tracker = op.swm_tracker()) {
      for (int s = 0; s < tracker->num_streams(); ++s) {
        const SwmTracker::StreamStats& st = tracker->stream(s);
        StreamProgress progress;
        progress.op_index = i;
        progress.stream = s;
        progress.upcoming_deadline = deadline;
        progress.epoch = st.epoch;
        progress.current_mu = st.current_delays.mean();
        progress.current_count = st.current_delays.count();
        progress.last_mu = st.last_mu;
        progress.last_chi = st.last_chi;
        progress.has_finalized_epoch = st.has_finalized_epoch;
        progress.last_sweep_ingest = st.last_sweep_ingest;
        progress.last_swept_deadline = st.last_swept_deadline;
        info->streams.push_back(progress);
      }
    }
  }
  whole.streams_end = static_cast<int>(info->streams.size());

  // Expected remaining end-to-end cost per element queued at each operator:
  // path_cost[i] = cost_i + selectivity_i * path_cost[downstream(i)].
  // Topological order means a reverse scan sees downstream before upstream.
  std::vector<double>& path_cost = info->op_path_cost;
  path_cost.assign(static_cast<size_t>(n), 0.0);
  for (int i = n - 1; i >= 0; --i) {
    const size_t idx = static_cast<size_t>(i);
    const int down = query.edge(i).downstream;
    const double tail =
        down == -1 ? 0.0 : path_cost[static_cast<size_t>(down)];
    path_cost[idx] = info->op_cost[idx] + info->op_selectivity[idx] * tail;
  }
  // The cost an operator's pending corrections add: they are not queued
  // anywhere yet, but will be emitted at the next watermark and must drain
  // through the operator's downstream path before the sweep completes.
  const auto refire_debt = [&](int i) {
    const int64_t refires = query.op(i).PendingRefires();
    if (refires <= 0) return 0.0;
    const int down = query.edge(i).downstream;
    return down == -1 ? 0.0
                      : static_cast<double>(refires) *
                            path_cost[static_cast<size_t>(down)];
  };

  // cost^q(t): drain cost of everything currently queued (Sec. 3), and the
  // refire debt of the range.
  for (int i = begin; i < end; ++i) {
    whole.drain_cost_micros +=
        static_cast<double>(info->op_queued[static_cast<size_t>(i)]) *
        path_cost[static_cast<size_t>(i)];
  }
  for (int i = begin; i < end; ++i) {
    whole.refire_debt_micros += refire_debt(i);
  }

  // A sharded query's units: one LaneInfo per Query::Lane, aggregated over
  // the lane's contiguous op range. The lanes partition [0, n) in op
  // order, so stream subranges are found by a single monotone sweep over
  // the op-ordered `streams` vector.
  info->lanes.clear();
  int stream_pos = 0;
  for (int l = 0; l < query.num_lanes(); ++l) {
    const Query::Lane& ql = query.lane(l);
    LaneInfo& lane = info->lanes.emplace_back();
    lane.lane = l;
    lane.streams_begin = stream_pos;
    for (int i = ql.begin; i < ql.end; ++i) {
      const size_t idx = static_cast<size_t>(i);
      lane.queued_events += info->op_queued[idx];
      lane.drain_cost_micros +=
          static_cast<double>(info->op_queued[idx]) * path_cost[idx];
      lane.refire_debt_micros += refire_debt(i);
      const Operator& op = query.op(i);
      for (int s = 0; s < op.num_inputs(); ++s) {
        const TimeMicros oldest = op.input(s).OldestIngestTime();
        if (oldest == kNoTime) continue;
        lane.oldest_ingest = lane.oldest_ingest == kNoTime
                                 ? oldest
                                 : std::min(lane.oldest_ingest, oldest);
      }
    }
    while (stream_pos < static_cast<int>(info->streams.size()) &&
           info->streams[static_cast<size_t>(stream_pos)].op_index < ql.end) {
      ++stream_pos;
    }
    lane.streams_end = stream_pos;
  }

  // HR priority [48]: global output rate of the pipeline — the product of
  // selectivities (output events per source event) over the total per-event
  // processing cost.
  double sel_product = 1.0;
  double cost_sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const size_t idx = static_cast<size_t>(i);
    // Terminal (sink) operators emit nothing by definition; their measured
    // selectivity of zero must not nullify the path productivity. The
    // *declared* selectivities are used so the rate reflects the query
    // plan, as in [48], rather than transient runtime noise.
    if (query.edge(i).downstream != -1) {
      sel_product *= std::clamp(query.op(i).selectivity_hint(), 0.0, 1.0);
    }
    cost_sum += info->op_cost[idx];
  }
  info->output_rate = cost_sum <= 0.0 ? 0.0 : sel_product / cost_sum;
}

}  // namespace klink
