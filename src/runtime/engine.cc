#include "src/runtime/engine.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/reshard.h"

namespace klink {
namespace {

/// Resource time-series sampling period (the paper samples every 200 ms).
constexpr DurationMicros kMetricsSamplePeriod = MillisToMicros(200);

}  // namespace

Status EngineConfig::Validate() const {
  if (num_cores < 1) {
    return Status::InvalidArgument("num_cores (--cores) must be >= 1");
  }
  if (cycle_length <= 0) {
    return Status::InvalidArgument("cycle_length must be > 0");
  }
  if (memory_capacity_bytes <= 0) {
    return Status::InvalidArgument(
        "memory_capacity_bytes (--memory-mb) must be > 0");
  }
  return Status::Ok();
}

Engine::Engine(const EngineConfig& config,
               std::unique_ptr<SchedulingPolicy> policy)
    : config_(config),
      node_(NodeConfig{config.num_cores, config.memory_capacity_bytes},
            std::move(policy)) {
  KLINK_CHECK_OK(config_.Validate());
  executor_ = std::make_unique<Executor>(config_.executor, config_.num_cores);
  next_sample_time_ = kMetricsSamplePeriod;
  if (AuditEnabledFromEnv()) audit_ = std::make_unique<InvariantAuditor>();
}

const std::vector<const Query*>& Engine::ActiveQueriesForAudit() {
  audit_scratch_.clear();
  for (const QueryFabric::LiveQuery& lq : fabric_.live()) {
    audit_scratch_.push_back(lq.query);
  }
  return audit_scratch_;
}

std::vector<const Query*> Engine::AllQueries() const {
  std::vector<const Query*> all;
  all.reserve(static_cast<size_t>(fabric_.size()));
  for (QueryId id = 0; id < fabric_.size(); ++id) {
    all.push_back(fabric_.Find(id));
  }
  return all;
}

QueryId Engine::AddQuery(std::unique_ptr<Query> query,
                         std::unique_ptr<EventFeed> feed,
                         TimeMicros deploy_time) {
  KLINK_CHECK(query != nullptr);
  return fabric_.Attach(std::move(query), std::move(feed), deploy_time);
}

void Engine::DetachQuery(QueryId id) {
  KLINK_CHECK(fabric_.IsLive(id));
  fabric_.Detach(id);
  // An already-empty query retires synchronously; otherwise SweepDrained
  // retires it at the cycle boundary after its queues empty.
  if (!fabric_.IsLive(id)) OnQueryRetired(id);
}

void Engine::OnQueryRetired(QueryId id) {
  // A retired tenant's state leaves the checkpoint stream: drop it from
  // in-flight epochs and stop injecting barriers into it.
  if (coordinator_ != nullptr) coordinator_->DeregisterQuery(id);
  snapshot_scratch_.detached.push_back(id);
}

Query& Engine::query(QueryId id) {
  Query* q = fabric_.Find(id);
  KLINK_CHECK(q != nullptr);
  return *q;
}

const Query& Engine::query(QueryId id) const {
  const Query* q = fabric_.Find(id);
  KLINK_CHECK(q != nullptr);
  return *q;
}

void Engine::RunUntil(TimeMicros end_time) {
  while (now_ < end_time) RunCycle();
}

void Engine::RunCycle() {
  // (0) Retire gracefully-detaching queries whose queues emptied during a
  // previous cycle's execution. O(1) when nothing is draining.
  retired_scratch_.clear();
  fabric_.SweepDrained(&retired_scratch_);
  for (const QueryId id : retired_scratch_) OnQueryRetired(id);

  // (1) The node ingests everything due by the cycle boundary, unless
  // backpressured, within the memory the live queries leave free;
  // checkpoint barriers inject *after* ingest (the epoch's replay cursor
  // is the delivered prefix).
  int64_t used_bytes = 0;
  for (const QueryFabric::LiveQuery& lq : fabric_.live()) {
    used_bytes += lq.query->MemoryBytes();
  }
  metrics_.AddIngested(node_.Ingest(now_, used_bytes, fabric_.fed()).data);
  if (coordinator_ != nullptr) coordinator_->OnCycleStart(now_);

  // (2) Collect the runtime snapshot I from every live query; their memory
  // (injected barrier bytes included) backs the node's memory update.
  BuildSnapshot(&snapshot_scratch_);
  if (audit_ != nullptr) {
    audit_->CheckMemoryAccounting(ActiveQueriesForAudit());
  }

  // (3) The node's policy step picks the queries that occupy the task
  // slots this cycle and grants each slot its budget.
  const Node::Grant grant = node_.Schedule(now_, config_.cycle_length,
                                           &snapshot_scratch_,
                                           &selection_scratch_);
  metrics_.AddSchedulerCost(grant.scheduler_cost_micros);

  // (4) Resolve the selection into per-slot tasks and run them on the
  // executor; per-slot counters merge at the cycle barrier.
  tasks_scratch_.clear();
  for (const SlotAssignment& slot : selection_scratch_) {
    KLINK_CHECK(IsActive(slot.query));  // policies select live queries only
    Query& q = query(slot.query);
    const int stage = slot.lane < 0 ? 0 : q.lane(slot.lane).stage;
    tasks_scratch_.push_back(
        ExecutorTask{&q, grant.slot_budget_micros, slot.lane, stage});
  }
  // Producer lanes must run before the lanes they feed: publish tasks in
  // stage order. The sort is stable so equal-stage slots keep the policy's
  // priority order. Task i drains on slot i whichever thread claims it,
  // which is what keeps both executor kinds bit-identical.
  std::stable_sort(tasks_scratch_.begin(), tasks_scratch_.end(),
                   [](const ExecutorTask& a, const ExecutorTask& b) {
                     return a.stage < b.stage;
                   });
  const CycleStats stats =
      executor_->ExecuteCycle(tasks_scratch_, grant.cost_multiplier, now_);
  if (audit_ != nullptr) {
    audit_->CheckCycleStats(*executor_, tasks_scratch_, stats);
    audit_->CheckProgressMonotonicity(ActiveQueriesForAudit());
  }
  // (4b) Live re-sharding: with workers parked at the cycle barrier the
  // controller may arm partition exchanges, detect drained barriers, and
  // redistribute keyed state across a new shard count (runtime/reshard.h).
  if (reshard_ != nullptr) reshard_->OnCycleEnd(now_);
  metrics_.AddProcessed(stats.processed_events);
  metrics_.AddCoreBusy(stats.busy_micros);
  busy_since_sample_ += stats.busy_micros;

  // (5) Sample the resource time series and advance the virtual clock.
  now_ += config_.cycle_length;
  MaybeSampleMetrics();
}

void Engine::RestoreClock(TimeMicros t) {
  KLINK_CHECK_GE(t, 0);
  now_ = t;
  last_sample_time_ = t;
  while (next_sample_time_ <= t) {
    next_sample_time_ += kMetricsSamplePeriod;
  }
}

void Engine::BuildSnapshot(RuntimeSnapshot* snap) {
  const std::vector<QueryFabric::LiveQuery>& live = fabric_.live();
  snap->queries.resize(live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    CollectQueryInfo(*live[i].query, &snap->queries[i]);
  }
}

void Engine::MaybeSampleMetrics() {
  if (now_ < next_sample_time_) return;
  // Samples land on cycle boundaries, so the actual window can exceed the
  // configured period; normalize by the true elapsed time.
  const double elapsed = static_cast<double>(now_ - last_sample_time_);
  const double window = elapsed * static_cast<double>(config_.num_cores);
  ResourceSample s;
  s.time = now_;
  s.memory_bytes = node_.memory().used_bytes();
  s.cpu_utilization = window <= 0.0 ? 0.0 : busy_since_sample_ / window;
  const int64_t processed_now = metrics_.processed_events();
  s.throughput_eps =
      elapsed <= 0.0
          ? 0.0
          : static_cast<double>(processed_now - processed_at_last_sample_) /
                MicrosToSeconds(static_cast<TimeMicros>(elapsed));
  metrics_.AddSample(s);
  busy_since_sample_ = 0.0;
  processed_at_last_sample_ = processed_now;
  last_sample_time_ = now_;
  while (next_sample_time_ <= now_) {
    next_sample_time_ += kMetricsSamplePeriod;
  }
}

Histogram Engine::AggregateSwmLatency() const {
  return MergeSinkLatency(AllQueries(), &SinkOperator::swm_latency);
}

Histogram Engine::AggregateMarkerLatency() const {
  return MergeSinkLatency(AllQueries(), &SinkOperator::marker_latency);
}

double Engine::MeanSlowdown() const {
  double total = 0.0;
  int counted = 0;
  QueryInfo info;
  for (const Query* q : AllQueries()) {
    const Histogram& lat = q->sink().swm_latency();
    if (lat.count() == 0) continue;
    // The ideal processing time of one source event (Sec. 6.1.2): the
    // costliest end-to-end path from a source.
    CollectQueryInfo(*q, &info);
    double unit_cost = 0.0;
    for (const SourceOperator* src : q->sources()) {
      for (int i = 0; i < q->num_operators(); ++i) {
        if (&q->op(i) != src) continue;
        unit_cost =
            std::max(unit_cost, info.op_path_cost[static_cast<size_t>(i)]);
        break;
      }
    }
    if (unit_cost <= 0.0) continue;
    total += lat.mean() / unit_cost;
    ++counted;
  }
  return counted == 0 ? 0.0 : total / counted;
}

}  // namespace klink
