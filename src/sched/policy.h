#ifndef KLINK_SCHED_POLICY_H_
#define KLINK_SCHED_POLICY_H_

#include <functional>
#include <string>
#include <vector>

#include "src/runtime/snapshot.h"
#include "src/sched/selection.h"

namespace klink {

/// A runtime operator-scheduling policy (the pluggable "policy component"
/// of the state-based scheduler framework, Sec. 5). Once per scheduling
/// cycle the engine collects the runtime snapshot I and asks the policy for
/// the queries to execute on the available cores for the next r
/// milliseconds. Policies are stateful (RR rotation, SBox stickiness,
/// Klink's epoch histories) and owned by one engine.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  virtual std::string name() const = 0;

  /// Appends up to `slots` assignments of distinct queries to execute this
  /// cycle, highest priority first. Queries with no queued work should not
  /// be selected. Assignments default to the full cycle quantum; policies
  /// may grant partial quanta via SlotAssignment::budget_fraction.
  virtual void SelectQueries(const RuntimeSnapshot& snapshot, int slots,
                             Selection* out) = 0;

  /// Modeled virtual CPU cost of evaluation, charged against the engine's
  /// core budget (scheduler overhead, Sec. 6.2.5). Called once per
  /// scheduling cycle; stateful policies return the cost accumulated since
  /// the previous call (the engine may invoke SelectQueries several times
  /// per cycle when queries drain early). Baseline heuristics cost
  /// ~nothing; Klink's cost scales with its slack integration work.
  virtual double EvaluationCostMicros(const RuntimeSnapshot& snapshot) {
    (void)snapshot;
    return 0.0;
  }
};

/// True when the query has work to schedule.
bool QueryIsReady(const QueryInfo& info);

/// Packed (query, lane) scheduling-unit key used by the lane-granular
/// policies' rankings: ascending unit order equals (id, lane) lexicographic
/// order, so id tiebreaks carry over unchanged when every query has a
/// single -1 lane. QueryId is a non-negative int32, so the shifted key
/// fits an int64 with room for 65535 lanes.
inline int64_t UnitKey(QueryId id, int lane) {
  return (static_cast<int64_t>(id) << 16) |
         static_cast<int64_t>(static_cast<uint16_t>(lane + 1));
}
inline QueryId UnitQuery(int64_t unit) {
  return static_cast<QueryId>(unit >> 16);
}
inline int UnitLane(int64_t unit) {
  return static_cast<int>(unit & 0xFFFF) - 1;
}

/// A lane's scheduling stats, decoupled from how the snapshot was built.
/// Lane-granular policies must view every QueryInfo through NumLanes /
/// LaneAt rather than reading info.lanes directly: hand-assembled test
/// fixtures carry no lanes vector, and for unsharded queries the
/// query-level aggregates are the authoritative — possibly newer — copy of
/// the single lane's stats. DistEngine node views are such a case: their
/// lane covers the node's own operators, while the query-level drain cost,
/// deadline and streams also hold the forwarded remote state. Both cases
/// collapse to one whole-query lane.
struct LaneView {
  int lane = -1;
  int64_t queued_events = 0;
  TimeMicros oldest_ingest = kNoTime;
  double drain_cost_micros = 0.0;
  double refire_debt_micros = 0.0;
  int streams_begin = 0;
  int streams_end = 0;
};

inline size_t NumLanes(const QueryInfo& info) {
  return info.lanes.size() <= 1 ? 1 : info.lanes.size();
}

inline LaneView LaneAt(const QueryInfo& info, size_t i) {
  if (info.lanes.size() <= 1) {
    return LaneView{-1,
                    info.queued_events,
                    info.oldest_ingest,
                    info.drain_cost_micros,
                    info.refire_debt_micros,
                    0,
                    static_cast<int>(info.streams.size())};
  }
  const LaneInfo& l = info.lanes[i];
  return LaneView{l.lane,           l.queued_events,
                  l.oldest_ingest,  l.drain_cost_micros,
                  l.refire_debt_micros, l.streams_begin,
                  l.streams_end};
}

/// Shared helper: appends up to `slots` ready queries ordered by `better`
/// (a strict weak ordering on QueryInfo, best first).
void SelectTopReadyQueries(
    const RuntimeSnapshot& snapshot, int slots,
    const std::function<bool(const QueryInfo&, const QueryInfo&)>& better,
    Selection* out);

}  // namespace klink

#endif  // KLINK_SCHED_POLICY_H_
