#include "src/runtime/node.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace klink {

Node::Node(const NodeConfig& config, std::unique_ptr<SchedulingPolicy> policy)
    : config_(config),
      policy_(std::move(policy)),
      memory_(config.memory_capacity_bytes) {
  KLINK_CHECK(policy_ != nullptr);
}

FeedIngest::Totals Node::Ingest(
    TimeMicros now, int64_t used_bytes,
    const std::vector<QueryFabric::LiveQuery>& fed) {
  FeedIngest::Totals moved;
  if (memory_.backpressured()) return moved;
  // Remaining buffer space bounds how much the cycle may ingest: the SPE
  // never fetches beyond its memory capacity (backpressure semantics).
  int64_t budget = config_.memory_capacity_bytes - used_bytes;
  for (const QueryFabric::LiveQuery& lq : fed) {
    if (budget <= 0) break;
    if (now < lq.query->deploy_time()) continue;
    const FeedIngest::Totals polled =
        feed_ingest_.Poll(*lq.feed, now, budget, *lq.query);
    budget -= polled.bytes;
    moved.bytes += polled.bytes;
    moved.data += polled.data;
  }
  return moved;
}

Node::Grant Node::Schedule(TimeMicros now, DurationMicros cycle_length,
                           RuntimeSnapshot* snap, Selection* selected) {
  int64_t used = 0;
  for (const QueryInfo& info : snap->queries) used += info.memory_bytes;
  memory_.Update(used);
  snap->now = now;
  snap->memory_utilization = memory_.utilization();
  snap->backpressured = memory_.backpressured();

  // Policy evaluation; its modeled cost is spread across the cores' cycle
  // budgets (the scheduler borrows CPU from event processing). Scheduling
  // is strictly cycle-grained, as in the state-based scheduler of Sec. 5:
  // the scheduler is inactive while operators execute, so a task occupies
  // its core for the whole cycle even if it drains early, which is why
  // spending quanta on the *right* queries matters.
  Grant grant;
  grant.scheduler_cost_micros = policy_->EvaluationCostMicros(*snap);
  selected->Clear();
  policy_->SelectQueries(*snap, config_.num_cores, selected);
  KLINK_CHECK_LE(selected->size(), static_cast<size_t>(config_.num_cores));
  KLINK_CHECK(selected->IsDistinct());
  snap->detached.clear();
  grant.slot_budget_micros =
      std::max(0.0, static_cast<double>(cycle_length) -
                        grant.scheduler_cost_micros /
                            static_cast<double>(config_.num_cores));
  grant.cost_multiplier = memory_.CostMultiplier();
  return grant;
}

}  // namespace klink
