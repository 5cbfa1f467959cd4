#ifndef KLINK_RUNTIME_NODE_H_
#define KLINK_RUNTIME_NODE_H_

#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/runtime/feed_ingest.h"
#include "src/runtime/memory_tracker.h"
#include "src/runtime/query_fabric.h"
#include "src/runtime/snapshot.h"
#include "src/sched/policy.h"
#include "src/sched/selection.h"

namespace klink {

/// One compute node's resources: task slots (cores) and a memory budget.
struct NodeConfig {
  int num_cores = 8;
  int64_t memory_capacity_bytes = 256ll << 20;
};

/// One compute node: its cores, its memory budget, its own autonomous
/// policy instance (Klink runs decentralized, Sec. 4), and the two phases
/// of a scheduling cycle that every node runs the same way. Engine owns one
/// node and DistEngine one per machine; each engine keeps only what is its
/// own: which queries a node hosts, how their snapshot is collected, and
/// how the selection executes.
class Node {
 public:
  /// What Schedule grants every selected unit for the cycle.
  struct Grant {
    /// Virtual CPU time each slot may spend: the cycle length net of the
    /// policy's evaluation cost spread across the cores, at least 0.
    double slot_budget_micros = 0.0;
    /// MemoryTracker::CostMultiplier after the cycle's memory update.
    double cost_multiplier = 1.0;
    /// The policy's modeled evaluation cost (EvaluationCostMicros).
    double scheduler_cost_micros = 0.0;
  };

  Node(const NodeConfig& config, std::unique_ptr<SchedulingPolicy> policy);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Ingest phase, the one ingest distributor. Unless the node is
  /// backpressured, polls each fed query deployed by `now`, in `fed`
  /// order, for the elements due by `now` within the memory still free:
  /// capacity minus `used_bytes` (what the node's operators hold) minus
  /// what earlier polls moved. First come, first served: the first query
  /// with a backlog may take all of it. Returns what the polls moved.
  FeedIngest::Totals Ingest(TimeMicros now, int64_t used_bytes,
                            const std::vector<QueryFabric::LiveQuery>& fed);

  /// Scheduling phase, on `snap` holding the queries this node hosts:
  /// updates the memory tracker with the snapshot's summed memory_bytes,
  /// stamps `snap` with `now`, utilization and backpressure, charges the
  /// policy's evaluation cost against the cycle of `cycle_length`, and has
  /// the policy fill `selected`. Aborts unless the selection holds at most
  /// one unit per core and no unit twice. Clears `snap->detached`, which
  /// the policy has now seen.
  Grant Schedule(TimeMicros now, DurationMicros cycle_length,
                 RuntimeSnapshot* snap, Selection* selected);

  const NodeConfig& config() const { return config_; }
  SchedulingPolicy& policy() { return *policy_; }
  const MemoryTracker& memory() const { return memory_; }

 private:
  NodeConfig config_;
  std::unique_ptr<SchedulingPolicy> policy_;
  MemoryTracker memory_;
  FeedIngest feed_ingest_;
};

}  // namespace klink

#endif  // KLINK_RUNTIME_NODE_H_
