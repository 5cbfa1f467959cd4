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

  /// Appends up to `slots` assignments of distinct units (a whole query,
  /// or a lane of a sharded one: QueryInfo::units) to execute this cycle,
  /// highest priority first. Units with no queued work should not be
  /// selected. Every assignment runs for the full cycle quantum.
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

/// True when the query has work to schedule (its whole-query unit).
bool QueryIsReady(const QueryInfo& info);

/// Shared helper: appends up to `slots` ready queries ordered by `better`
/// (a strict weak ordering on QueryInfo, best first).
void SelectTopReadyQueries(
    const RuntimeSnapshot& snapshot, int slots,
    const std::function<bool(const QueryInfo&, const QueryInfo&)>& better,
    Selection* out);

}  // namespace klink

#endif  // KLINK_SCHED_POLICY_H_
