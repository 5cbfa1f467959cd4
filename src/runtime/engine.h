#ifndef KLINK_RUNTIME_ENGINE_H_
#define KLINK_RUNTIME_ENGINE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/query/query.h"
#include "src/runtime/audit.h"
#include "src/runtime/event_feed.h"
#include "src/runtime/executor.h"
#include "src/runtime/feed_ingest.h"
#include "src/runtime/memory_tracker.h"
#include "src/runtime/metrics.h"
#include "src/runtime/query_fabric.h"
#include "src/runtime/snapshot.h"
#include "src/sched/policy.h"

namespace klink {

class CheckpointCoordinator;
class ReshardController;

/// Engine tuning knobs. Defaults model the paper's single-node setup,
/// scaled down so experiments run in seconds of wall time (see DESIGN.md).
struct EngineConfig {
  /// Simulated processing cores (task slots).
  int num_cores = 8;
  /// Scheduling cycle r: the policy re-evaluates every cycle_length of
  /// virtual time (paper default 120 ms, Sec. 6.2).
  DurationMicros cycle_length = MillisToMicros(120);
  /// Simulated memory capacity for queues + operator state.
  int64_t memory_capacity_bytes = 256ll << 20;
  /// Backpressure hysteresis: ingestion stalls at capacity and resumes
  /// below this fraction of capacity. Must lie in (0, 1].
  double backpressure_resume_fraction = 0.8;
  /// Managed-runtime memory-pressure model: per-event processing costs are
  /// inflated by up to (1 + memory_pressure_penalty) as utilization rises
  /// from pressure_onset_fraction to 1.0, reproducing the JVM GC/allocator
  /// slowdown that throttles Flink near its memory ceiling (Fig. 8/9).
  double memory_pressure_penalty = 0.35;
  double pressure_onset_fraction = 0.7;
  /// Resource time-series sampling period (paper samples every 200 ms).
  DurationMicros metrics_sample_period = MillisToMicros(200);
  /// Execution backend for the task slots. Both backends produce
  /// bit-identical results (see src/runtime/executor.h); kThreads trades
  /// startup cost for wall-clock speedup on multi-query cycles.
  ExecutorKind executor = ExecutorKind::kSequential;

  /// Rejects out-of-range values (a misconfigured engine silently
  /// misbehaves otherwise); the message names the offending field and, where
  /// one sets it, the klink_run flag. The Engine constructor aborts on a
  /// non-OK result.
  Status Validate() const;
};

/// The stream processing engine: a virtual-time, state-based-scheduled SPE
/// (Sec. 5), layered as orchestration (this class) over policy
/// (sched/policy.h) over execution (runtime/executor.h). Each scheduling
/// cycle the engine (1) ingests feed elements due by now into source
/// queues unless backpressured, (2) collects the runtime snapshot I,
/// (3) asks the policy for a Selection of one query per core, charging the
/// policy's modeled evaluation cost against the cycle budget, (4) hands
/// the selection to the executor, which runs each slot for up to r of
/// virtual CPU time and merges per-worker counters at the cycle barrier,
/// and (5) samples resource metrics and advances the clock.
///
/// Query membership is managed by a QueryFabric (runtime/query_fabric.h):
/// queries attach and detach live, and the engine's per-cycle state —
/// memory total and runtime snapshot — is maintained *incrementally* from
/// the fabric's change journal, so refreshing it costs per query that
/// changed, not per query deployed. Policies then scan the whole snapshot.
class Engine {
 public:
  Engine(const EngineConfig& config, std::unique_ptr<SchedulingPolicy> policy);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Deploys a query live; ingestion starts once now() >= deploy_time.
  /// `feed` may be null for manually driven tests. Returns the
  /// generation-stamped query id (equal to the builder-assigned id for a
  /// fixed up-front set — slots are dense and generations start at 0).
  QueryId AddQuery(std::unique_ptr<Query> query, std::unique_ptr<EventFeed> feed,
                   TimeMicros deploy_time = 0);

  /// Undeploys a query immediately: ingestion stops, queued elements are
  /// discarded, and the policy no longer sees it. The Query object (and
  /// its sink's recorded statistics) remains accessible via query(id).
  void RemoveQuery(QueryId id);

  /// Gracefully detaches a query: ingestion stops now, but queued work —
  /// including in-flight checkpoint barriers — keeps being scheduled until
  /// the queues drain, then the query retires. Stats stay readable via
  /// query(id). This is the path tenant churn uses (tools/klink_run.cc).
  void DetachQuery(QueryId id);

  /// True while the query is deployed (active or draining); false once
  /// removed/retired or for unknown ids.
  bool IsActive(QueryId id) const { return fabric_.IsLive(id); }

  /// Runs whole scheduling cycles until now() >= end_time.
  void RunUntil(TimeMicros end_time);
  void RunFor(DurationMicros duration) { RunUntil(now_ + duration); }

  TimeMicros now() const { return now_; }
  /// Live (attached, non-retired) queries — tombstones are not a concept
  /// the fabric has, so removed queries never inflate this count.
  int num_queries() const { return fabric_.live_count(); }
  /// Live or retired query; aborts on unknown ids.
  Query& query(QueryId id);
  const Query& query(QueryId id) const;

  /// The control plane: endpoint routing, lifecycle introspection.
  QueryFabric& fabric() { return fabric_; }
  const QueryFabric& fabric() const { return fabric_; }

  const EngineMetrics& metrics() const { return metrics_; }
  /// Recollects late-data accounting (allowed lateness) of every live
  /// query into metrics().late_by_query(). Operator counters are
  /// cumulative, so calling this at any point yields totals-so-far.
  void RefreshLateEventMetrics();
  const MemoryTracker& memory() const { return memory_; }
  SchedulingPolicy& policy() { return *policy_; }
  const Executor& executor() const { return *executor_; }
  const EngineConfig& config() const { return config_; }

  /// Attaches a checkpoint coordinator (not owned; may be null to detach).
  /// Each cycle, right after ingest, the engine gives it a chance to
  /// finalize durable epochs and inject the next barriers; injected barrier
  /// bytes fold into the cycle's memory update.
  void SetCheckpointCoordinator(CheckpointCoordinator* coordinator) {
    coordinator_ = coordinator;
  }

  /// Attaches a live re-shard controller (not owned; may be null to
  /// detach). Its OnCycleEnd hook runs on the engine thread after each
  /// cycle's execution, when workers are parked at the barrier — the only
  /// point where redistributing keyed state across shards is race-free.
  void SetReshardController(ReshardController* controller) {
    reshard_ = controller;
  }

  /// Re-syncs the incremental memory accounting with `id`'s state and
  /// marks it for snapshot refresh, after out-of-band mutation (re-shard
  /// redistribution, checkpoint restore of a single query).
  void NotifyQueryMutated(QueryId id) {
    SyncQueryMemory(query(id));
    fabric_.MarkDirty(id);
  }

  /// Rewinds the virtual clock to a restored checkpoint's capture time, so
  /// the resumed run replays the exact cycle boundaries of the original.
  /// Also resynchronizes the incremental memory accounting with the
  /// restored operator state. Only valid before the first RunUntil.
  void RestoreClock(TimeMicros t);

  /// Output latency (SWM propagation delay) merged across all query sinks,
  /// including retired queries.
  Histogram AggregateSwmLatency() const;
  /// Latency-marker propagation delay merged across all query sinks.
  Histogram AggregateMarkerLatency() const;
  /// Mean slowdown: per-query mean SWM latency over the ideal end-to-end
  /// processing cost of one event, averaged across queries (Sec. 6.1.2).
  double MeanSlowdown() const;

 private:
  void RunCycle();
  /// Active queries, rebuilt into audit_scratch_ for the invariant auditor.
  const std::vector<const Query*>& ActiveQueriesForAudit();
  /// Ingests feed elements due by now() into source queues, maintaining the
  /// incremental memory total.
  void Ingest();
  /// Consumes the fabric's change journal into the persistent snapshot:
  /// drops detached entries, re-collects touched ones, and folds each
  /// touched query's memory delta into memory_usage_. O(touched), not
  /// O(queries).
  void BuildSnapshot(RuntimeSnapshot* snap);
  /// Folds `q`'s memory delta since its last accounting into memory_usage_.
  void SyncQueryMemory(const Query& q);
  /// Drops a retired query from the incremental memory accounting.
  void OnQueryRetired(QueryId id);
  void MaybeSampleMetrics();

  EngineConfig config_;
  std::unique_ptr<SchedulingPolicy> policy_;
  std::unique_ptr<Executor> executor_;
  QueryFabric fabric_;
  MemoryTracker memory_;
  EngineMetrics metrics_;
  TimeMicros now_ = 0;
  TimeMicros next_sample_time_ = 0;
  TimeMicros last_sample_time_ = 0;
  // Rolling counters for windowed metric samples.
  double busy_since_sample_ = 0.0;
  int64_t processed_at_last_sample_ = 0;
  /// Incremental total of live queries' MemoryBytes(), synced per query at
  /// attach, ingest, snapshot refresh, post-execution, and retire. Equals
  /// what a full sweep would return at every cycle's memory update (the
  /// KLINK_AUDIT memory check proves it against recomputation).
  int64_t memory_usage_ = 0;
  /// Per-live-query memory last folded into memory_usage_.
  std::unordered_map<QueryId, int64_t> accounted_mem_;
  FeedIngest feed_ingest_;
  Selection selection_scratch_;
  std::vector<ExecutorTask> tasks_scratch_;
  RuntimeSnapshot snapshot_scratch_;
  /// Ids BuildSnapshot re-collects this cycle (the fabric journal).
  std::vector<QueryId> touched_scratch_;
  std::vector<QueryId> retired_scratch_;
  /// Non-owning; null when checkpointing is off (see SetCheckpointCoordinator).
  CheckpointCoordinator* coordinator_ = nullptr;
  /// Non-owning; null when live re-sharding is off (see SetReshardController).
  ReshardController* reshard_ = nullptr;
  /// Non-null when KLINK_AUDIT=1 at construction: cycle-boundary invariant
  /// cross-checks (see runtime/audit.h for the audited invariants and cost).
  std::unique_ptr<InvariantAuditor> audit_;
  std::vector<const Query*> audit_scratch_;
};

}  // namespace klink

#endif  // KLINK_RUNTIME_ENGINE_H_
