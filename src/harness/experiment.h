#ifndef KLINK_HARNESS_EXPERIMENT_H_
#define KLINK_HARNESS_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/status.h"
#include "src/klink/klink_policy.h"
#include "src/net/delay_model.h"
#include "src/runtime/engine.h"
#include "src/sched/policy.h"

namespace klink {

/// The scheduling algorithms compared in the evaluation (Sec. 6.1.3).
enum class PolicyKind {
  kDefault,
  kFcfs,
  kRoundRobin,
  kHighestRate,
  kStreamBox,
  kKlink,
  kKlinkNoMm,
};

/// The benchmark workloads (Sec. 6.1.1).
enum class WorkloadKind { kYsb, kLrb, kNyt };

/// The network delay distributions (Sec. 6.2), plus the heavy-tailed
/// Pareto straggler regime used by the allowed-lateness experiments.
enum class DelayKind { kUniform, kZipf, kPareto };

const char* PolicyKindName(PolicyKind kind);
const char* WorkloadKindName(WorkloadKind kind);
const char* DelayKindName(DelayKind kind);

/// The --workload and --delay spellings of klink_run and loadgen ("ysb",
/// "uniform", ...), one table each, so a command one tool prints is one
/// the other parses. Parse returns false for a name not in the table.
const char* WorkloadFlagName(WorkloadKind kind);
bool ParseWorkloadFlag(const std::string& name, WorkloadKind* out);
const char* DelayFlagName(DelayKind kind);
bool ParseDelayFlag(const std::string& name, DelayKind* out);

/// Builds a policy instance. `klink_config` applies to the Klink variants;
/// seed feeds the Default policy's randomness.
std::unique_ptr<SchedulingPolicy> MakePolicy(
    PolicyKind kind, const KlinkPolicyConfig& klink_config, uint64_t seed);

/// Builds a delay model instance of the requested distribution.
std::unique_ptr<DelayModel> MakeDelayModel(DelayKind kind);

/// Watermark lag (the application's lateness bound) appropriate for the
/// delay distribution: generous enough that late drops are rare.
DurationMicros WatermarkLagFor(DelayKind kind);

/// One tenant of a run: a copy of the workload's fixed pipeline (Sec.
/// 6.1.1) whose window deadlines are phase-shifted by its own offset
/// (Sec. 6.2.1). These fields are all a tenant varies; the pipeline's
/// costs, key space, selectivity and windows are constants of its
/// workload (src/workloads/{ysb,lrb,nyt}.cc).
struct TenantSpec {
  WorkloadKind workload = WorkloadKind::kYsb;
  /// Data events per second per source (LRB has 3 sources).
  double events_per_second = 1000.0;
  DurationMicros watermark_lag = MillisToMicros(150);
  /// In [0, WindowOffsetRange(workload)); each caller draws its own.
  DurationMicros window_offset = 0;
  DurationMicros allowed_lateness = 0;
  /// Shards of the keyed aggregation (YSB and NYT; see YsbConfig::shards).
  int shards = 1;
  int max_shards = 0;
  /// Zipf exponent of the feed's key draws; 0 = uniform.
  double key_skew = 0.0;
};

/// Window offsets are drawn from [0, WindowOffsetRange(workload)): one
/// period of the workload's first window operator.
DurationMicros WindowOffsetRange(WorkloadKind workload);

/// Builds tenant `id`'s query into `*query` and its feed into `*feed`,
/// skipping a null output: the listen server builds only queries, loadgen
/// only feeds. The feed draws from `feed_seed` through `delay` and
/// generates from `start_time` on. The one place the workload configs of
/// a tenant are filled.
void MakeTenant(const TenantSpec& spec, QueryId id,
                std::unique_ptr<Query>* query,
                std::unique_ptr<EventFeed>* feed,
                std::unique_ptr<DelayModel> delay = nullptr,
                uint64_t feed_seed = 0, TimeMicros start_time = 0);

/// The largest per-source rate (--rate of klink_run and loadgen). A
/// synthetic feed materializes every element due by a poll
/// (SyntheticFeed::GenerateUpTo), so its memory grows with the rate: at
/// 1e15 ev/s one 120 ms cycle asks for ~1e14 elements and the run dies in
/// std::bad_alloc. At the ceiling a cycle is 120k elements (~7 MB) per
/// source, 20x the largest rate the repo runs (50000 ev/s).
inline constexpr double kMaxEventsPerSecond = 1e6;

/// Rejects a per-source rate outside (0, kMaxEventsPerSecond], naming
/// --rate. ExperimentConfig::Validate, klink_run --listen and loadgen
/// check their rates with it.
Status ValidateEventRate(double events_per_second);

/// One experiment = one engine run: N query instances of one workload under
/// one scheduling policy for `duration` of virtual time.
struct ExperimentConfig {
  PolicyKind policy = PolicyKind::kKlink;
  WorkloadKind workload = WorkloadKind::kYsb;
  DelayKind delay = DelayKind::kUniform;
  int num_queries = 20;
  /// Data events per second per query source (LRB has 3 sources/query).
  double events_per_second = 1000.0;
  /// Virtual run length (the paper runs 20 minutes; scaled down here).
  DurationMicros duration = SecondsToMicros(120);
  /// Queries deploy at uniformly random times within this span, which also
  /// randomizes the window deadline phases (Sec. 6.2.1).
  DurationMicros deploy_spread = SecondsToMicros(20);
  /// Warm-up: latency/throughput statistics ignore everything before this.
  DurationMicros warmup = SecondsToMicros(30);
  EngineConfig engine;
  KlinkPolicyConfig klink;
  uint64_t seed = 1;
  /// Intra-query key sharding of the workloads' keyed aggregation (YSB and
  /// NYT; LRB builds no shard region). See YsbConfig::shards.
  int shards = 1;
  int max_shards = 0;
  /// Allowed-lateness horizon applied to every query's windowed operators
  /// and sink (see YsbConfig::allowed_lateness). 0 = strict drop policy.
  DurationMicros allowed_lateness = 0;

  /// Rejects an experiment RunExperiment cannot run: the experiment fields
  /// here, then the engine's (EngineConfig::Validate). The message names
  /// the offending field and its klink_run flag.
  Status Validate() const;
};

/// The tenant every query of `config` runs, with its own window offset.
TenantSpec TenantOf(const ExperimentConfig& config,
                    DurationMicros window_offset);

/// Aggregated outcome of one experiment.
struct ExperimentResult {
  std::string policy_name;
  /// Output latency (SWM propagation delay) distribution, seconds helpers.
  Histogram latency;
  double mean_latency_s = 0.0;
  double p50_latency_s = 0.0;
  double p90_latency_s = 0.0;
  double p99_latency_s = 0.0;
  /// Aggregate operator-events processed per second.
  double throughput_eps = 0.0;
  /// Mean slowdown (Sec. 6.1.2).
  double slowdown = 0.0;
  /// Resource utilization.
  double mean_cpu_utilization = 0.0;
  double p90_cpu_utilization = 0.0;
  double mean_memory_bytes = 0.0;
  double p90_memory_bytes = 0.0;
  int64_t peak_memory_bytes = 0;
  /// Scheduler overhead fraction (Fig. 9d).
  double scheduler_overhead = 0.0;
  /// Klink-only: SWM ingestion estimation accuracy (Fig. 9c).
  double estimator_accuracy = 0.0;
  int64_t estimator_predictions = 0;
  /// Klink-only: mean |actual - predicted| SWM ingestion time in seconds
  /// (Fig. 9c companion; more sensitive under heavy-tailed delays).
  double estimator_mae_s = 0.0;
  /// Late-data accounting summed over every query (allowed lateness).
  QueryLateMetrics late;
  /// Queries whose deploy time is at or after `duration`: they never run.
  /// Deploys spread over ExperimentConfig::deploy_spread, so a run shorter
  /// than that can leave some, or all, of them out.
  int undeployed_queries = 0;
  /// Raw time series for Fig. 8-style plots.
  std::vector<ResourceSample> samples;
};

/// Runs one experiment to completion. `probe`, when non-null, is invoked
/// with every runtime snapshot before the policy runs (used by the
/// estimator-accuracy bench to feed shadow estimators).
using SnapshotProbe = std::function<void(const RuntimeSnapshot&)>;
ExperimentResult RunExperiment(const ExperimentConfig& config,
                               SnapshotProbe probe = nullptr);

}  // namespace klink

#endif  // KLINK_HARNESS_EXPERIMENT_H_
