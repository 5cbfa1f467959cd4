#ifndef KLINK_SCHED_FCFS_POLICY_H_
#define KLINK_SCHED_FCFS_POLICY_H_

#include <string>

#include "src/sched/policy.h"

namespace klink {

/// First-Come-First-Served (Sec. 6.1.3): processes input in event arrival
/// order — the query holding the oldest queued element runs first,
/// optimizing for the maximum (not mean) latency of individual requests.
///
/// Scheduling is unit-granular: unsharded queries are one unit, sharded
/// queries contribute one unit per lane (sched/policy.h UnitKey), so the
/// shards of one query drain on distinct slots in arrival order.
class FcfsPolicy final : public SchedulingPolicy {
 public:
  std::string name() const override { return "FCFS"; }
  void SelectQueries(const RuntimeSnapshot& snapshot, int slots,
                     Selection* out) override;
};

}  // namespace klink

#endif  // KLINK_SCHED_FCFS_POLICY_H_
