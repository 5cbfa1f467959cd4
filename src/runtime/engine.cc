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
      policy_(std::move(policy)),
      memory_(config.memory_capacity_bytes) {
  KLINK_CHECK_OK(config_.Validate());
  KLINK_CHECK(policy_ != nullptr);
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

QueryId Engine::AddQuery(std::unique_ptr<Query> query,
                         std::unique_ptr<EventFeed> feed,
                         TimeMicros deploy_time) {
  KLINK_CHECK(query != nullptr);
  return fabric_.Attach(std::move(query), std::move(feed), deploy_time);
}

void Engine::RemoveQuery(QueryId id) {
  KLINK_CHECK(fabric_.IsLive(id));
  fabric_.Detach(id, QueryFabric::DetachMode::kImmediate);
  OnQueryRetired(id);
}

void Engine::DetachQuery(QueryId id) {
  KLINK_CHECK(fabric_.IsLive(id));
  fabric_.Detach(id, QueryFabric::DetachMode::kDrain);
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

void Engine::RefreshLateEventMetrics() {
  for (const QueryFabric::LiveQuery& lq : fabric_.live()) {
    metrics_.SetQueryLateMetrics(lq.id, CollectQueryLateMetrics(*lq.query));
  }
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

  // (1) Ingest everything due by the cycle boundary, unless backpressured;
  // checkpoint barriers inject *after* ingest (the epoch's replay cursor is
  // the delivered prefix).
  Ingest();
  if (coordinator_ != nullptr) coordinator_->OnCycleStart(now_);

  // (2) Collect the runtime snapshot I from every live query; their memory
  // (injected barrier bytes included) backs the cycle's memory update.
  memory_.Update(BuildSnapshot(&snapshot_scratch_));
  if (audit_ != nullptr) {
    audit_->CheckMemoryAccounting(ActiveQueriesForAudit());
  }
  snapshot_scratch_.now = now_;
  snapshot_scratch_.memory_utilization = memory_.utilization();
  snapshot_scratch_.backpressured = memory_.backpressured();

  // (3) Policy evaluation; its modeled cost is spread across the cores'
  // cycle budgets (the scheduler borrows CPU from event processing).
  const double r = static_cast<double>(config_.cycle_length);
  const double sched_cost = policy_->EvaluationCostMicros(snapshot_scratch_);
  metrics_.AddSchedulerCost(sched_cost);

  // (4) Ask the policy which queries occupy the task slots this cycle.
  // Scheduling is strictly cycle-grained, as in the state-based scheduler
  // of Sec. 5: the scheduler is inactive while operators execute, so a
  // task occupies its core for the whole cycle even if it drains early —
  // which is precisely why spending quanta on the *right* queries matters.
  selection_scratch_.Clear();
  policy_->SelectQueries(snapshot_scratch_, config_.num_cores,
                         &selection_scratch_);
  KLINK_CHECK_LE(selection_scratch_.size(),
                 static_cast<size_t>(config_.num_cores));
  KLINK_DCHECK(selection_scratch_.IsDistinct());
  snapshot_scratch_.detached.clear();

  // (5) Resolve the selection into per-slot tasks and run them on the
  // executor; per-slot counters merge at the cycle barrier.
  const double budget =
      std::max(0.0, r - sched_cost / static_cast<double>(config_.num_cores));
  const double multiplier = memory_.CostMultiplier();
  tasks_scratch_.clear();
  for (const SlotAssignment& slot : selection_scratch_) {
    KLINK_CHECK(IsActive(slot.query));  // policies select live queries only
    Query& q = query(slot.query);
    const int stage = slot.lane < 0 ? 0 : q.lane(slot.lane).stage;
    tasks_scratch_.push_back(ExecutorTask{&q, budget, slot.lane, stage});
  }
  // Producer lanes must run before the lanes they feed: publish tasks in
  // stage order. The sort is stable so equal-stage slots keep the policy's
  // priority order. Task i drains on slot i whichever thread claims it,
  // which is what keeps both executor kinds bit-identical.
  std::stable_sort(tasks_scratch_.begin(), tasks_scratch_.end(),
                   [](const ExecutorTask& a, const ExecutorTask& b) {
                     return a.stage < b.stage;
                   });
  if (audit_ != nullptr) {
    audit_->CheckSelection(selection_scratch_, config_.num_cores);
  }
  const CycleStats stats =
      executor_->ExecuteCycle(tasks_scratch_, multiplier, now_);
  if (audit_ != nullptr) {
    audit_->CheckCycleStats(*executor_, tasks_scratch_, stats);
    audit_->CheckProgressMonotonicity(ActiveQueriesForAudit());
  }
  // (5b) Live re-sharding: with workers parked at the cycle barrier the
  // controller may arm partition exchanges, detect drained barriers, and
  // redistribute keyed state across a new shard count (runtime/reshard.h).
  if (reshard_ != nullptr) reshard_->OnCycleEnd(now_);
  metrics_.AddProcessed(stats.processed_events);
  metrics_.AddCoreBusy(stats.busy_micros);
  busy_since_sample_ += stats.busy_micros;

  // (6) Sample the resource time series and advance the virtual clock.
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

void Engine::Ingest() {
  if (memory_.backpressured()) return;
  // Remaining buffer space bounds how much the cycle may ingest: the SPE
  // never fetches beyond its memory capacity (backpressure semantics).
  int64_t budget = config_.memory_capacity_bytes;
  for (const QueryFabric::LiveQuery& lq : fabric_.live()) {
    budget -= lq.query->MemoryBytes();
  }
  for (const QueryFabric::LiveQuery& lq : fabric_.fed()) {
    if (budget <= 0) break;
    if (now_ < lq.query->deploy_time()) continue;
    const FeedIngest::Totals polled =
        feed_ingest_.Poll(*lq.feed, now_, budget, *lq.query);
    if (polled.bytes == 0) continue;
    budget -= polled.bytes;
    metrics_.AddIngested(polled.data);
  }
}

int64_t Engine::BuildSnapshot(RuntimeSnapshot* snap) {
  const std::vector<QueryFabric::LiveQuery>& live = fabric_.live();
  snap->queries.resize(live.size());
  int64_t memory = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    CollectQueryInfo(*live[i].query, now_, &snap->queries[i]);
    memory += snap->queries[i].memory_bytes;
  }
  return memory;
}

void Engine::MaybeSampleMetrics() {
  if (now_ < next_sample_time_) return;
  // Samples land on cycle boundaries, so the actual window can exceed the
  // configured period; normalize by the true elapsed time.
  const double elapsed = static_cast<double>(now_ - last_sample_time_);
  const double window = elapsed * static_cast<double>(config_.num_cores);
  ResourceSample s;
  s.time = now_;
  s.memory_bytes = memory_.used_bytes();
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
  Histogram h;
  for (const QueryFabric::LiveQuery& lq :
       fabric_.live()) {
    h.Merge(lq.query->sink().swm_latency());
  }
  for (const auto& [id, q] : fabric_.retired()) {
    h.Merge(q->sink().swm_latency());
  }
  return h;
}

Histogram Engine::AggregateMarkerLatency() const {
  Histogram h;
  for (const QueryFabric::LiveQuery& lq :
       fabric_.live()) {
    h.Merge(lq.query->sink().marker_latency());
  }
  for (const auto& [id, q] : fabric_.retired()) {
    h.Merge(q->sink().marker_latency());
  }
  return h;
}

double Engine::MeanSlowdown() const {
  double total = 0.0;
  int counted = 0;
  const auto fold = [&](const Query& q) {
    const Histogram& lat = q.sink().swm_latency();
    if (lat.count() == 0) return;
    QueryInfo info;
    CollectQueryInfo(q, now_, &info);
    if (info.unit_cost_micros <= 0.0) return;
    total += lat.mean() / info.unit_cost_micros;
    ++counted;
  };
  for (const QueryFabric::LiveQuery& lq :
       fabric_.live()) {
    fold(*lq.query);
  }
  for (const auto& [id, q] : fabric_.retired()) fold(*q);
  return counted == 0 ? 0.0 : total / counted;
}

}  // namespace klink
