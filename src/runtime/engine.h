#ifndef KLINK_RUNTIME_ENGINE_H_
#define KLINK_RUNTIME_ENGINE_H_

#include <memory>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/query/query.h"
#include "src/runtime/audit.h"
#include "src/runtime/event_feed.h"
#include "src/runtime/executor.h"
#include "src/runtime/memory_tracker.h"
#include "src/runtime/metrics.h"
#include "src/runtime/node.h"
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
  /// Simulated memory capacity for queues + operator state. Ingestion
  /// stalls at capacity (MemoryTracker backpressure), and per-event costs
  /// inflate as usage nears it (MemoryTracker::CostMultiplier).
  int64_t memory_capacity_bytes = 256ll << 20;
  /// Which threads drain the task slots. Both kinds give bit-identical
  /// results (see src/runtime/executor.h); kThreads is the oracle for the
  /// concurrent protocols and runs shard lanes in parallel, not a speed
  /// option.
  ExecutorKind executor = ExecutorKind::kSequential;

  /// Rejects out-of-range values (a misconfigured engine silently
  /// misbehaves otherwise); the message names the offending field and, where
  /// one sets it, the klink_run flag. The Engine constructor aborts on a
  /// non-OK result.
  Status Validate() const;
};

/// The stream processing engine: a virtual-time, state-based-scheduled SPE
/// (Sec. 5), layered as orchestration (this class) over one Node (its
/// cores, memory and policy, runtime/node.h) over execution
/// (runtime/executor.h). Each scheduling cycle the node (1) ingests feed
/// elements due by now into source queues unless backpressured; the
/// engine (2) collects the runtime snapshot I; the node (3) asks the
/// policy for a Selection of one query per core, charging the policy's
/// modeled evaluation cost against the cycle budget; the engine (4) hands
/// the selection to the executor, which runs each slot for up to r of
/// virtual CPU time and merges per-worker counters at the cycle barrier,
/// and (5) samples resource metrics and advances the clock.
///
/// Query membership is managed by a QueryFabric (runtime/query_fabric.h):
/// queries attach and detach live. Each cycle the engine collects every
/// live query, in id order, into the runtime snapshot, as DistEngine does
/// per node; policies then scan the snapshot.
class Engine {
 public:
  Engine(const EngineConfig& config, std::unique_ptr<SchedulingPolicy> policy);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Deploys a query live; ingestion starts once now() >= deploy_time.
  /// `feed` may be null for manually driven tests. Returns the query id,
  /// its attach index (equal to the builder-assigned id for a fixed
  /// up-front set built with ids 0..n-1).
  QueryId AddQuery(std::unique_ptr<Query> query, std::unique_ptr<EventFeed> feed,
                   TimeMicros deploy_time = 0);

  /// Gracefully detaches a query: ingestion stops now, but queued work —
  /// including in-flight checkpoint barriers — keeps being scheduled until
  /// the queues drain, then the query retires. Stats stay readable via
  /// query(id). This is the path tenant churn uses (tools/klink_run.cc).
  void DetachQuery(QueryId id);

  /// True while the query is deployed (active or draining); false once
  /// retired or for unknown ids.
  bool IsActive(QueryId id) const { return fabric_.IsLive(id); }

  /// Runs whole scheduling cycles until now() >= end_time.
  void RunUntil(TimeMicros end_time);
  void RunFor(DurationMicros duration) { RunUntil(now_ + duration); }

  TimeMicros now() const { return now_; }
  /// Live (attached, non-retired) queries; retired queries keep their
  /// fabric slot but never count here.
  int num_queries() const { return fabric_.live_count(); }
  /// Live or retired query; aborts on unknown ids.
  Query& query(QueryId id);
  const Query& query(QueryId id) const;

  /// The control plane: endpoint routing, lifecycle introspection.
  QueryFabric& fabric() { return fabric_; }
  const QueryFabric& fabric() const { return fabric_; }

  const EngineMetrics& metrics() const { return metrics_; }
  const MemoryTracker& memory() const { return node_.memory(); }
  SchedulingPolicy& policy() { return node_.policy(); }
  const Executor& executor() const { return *executor_; }
  const EngineConfig& config() const { return config_; }

  /// Attaches a checkpoint coordinator (not owned; may be null to detach).
  /// Each cycle, right after ingest, the engine gives it a chance to
  /// finalize durable epochs and inject the next barriers; the snapshot
  /// collected after it sees the injected barriers' bytes.
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

  /// Rewinds the virtual clock to a restored checkpoint's capture time, so
  /// the resumed run replays the exact cycle boundaries of the original.
  /// Only valid before the first RunUntil.
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
  /// Every query the engine ever ran, retired ones included, in id order:
  /// the folds over all sinks walk these.
  std::vector<const Query*> AllQueries() const;
  /// Collects every live query into `snap->queries`, in id order.
  void BuildSnapshot(RuntimeSnapshot* snap);
  /// Deregisters a retired query from checkpointing and reports it to the
  /// policy through the next snapshot's `detached` list.
  void OnQueryRetired(QueryId id);
  void MaybeSampleMetrics();

  EngineConfig config_;
  Node node_;
  std::unique_ptr<Executor> executor_;
  QueryFabric fabric_;
  EngineMetrics metrics_;
  TimeMicros now_ = 0;
  TimeMicros next_sample_time_ = 0;
  TimeMicros last_sample_time_ = 0;
  // Rolling counters for windowed metric samples.
  double busy_since_sample_ = 0.0;
  int64_t processed_at_last_sample_ = 0;
  Selection selection_scratch_;
  std::vector<ExecutorTask> tasks_scratch_;
  RuntimeSnapshot snapshot_scratch_;
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
