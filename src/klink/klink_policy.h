#ifndef KLINK_KLINK_KLINK_POLICY_H_
#define KLINK_KLINK_KLINK_POLICY_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/klink/swm_estimator.h"
#include "src/sched/deadline_index.h"
#include "src/sched/policy.h"

namespace klink {

/// Klink configuration (paper defaults from Sec. 6.2).
struct KlinkPolicyConfig {
  /// h: epochs of history kept per stream.
  int history_epochs = 400;
  /// f: confidence for the SWM ingestion interval (Eq. 7).
  double confidence = 0.95;
  /// r used by the slack integration; should match the engine cycle.
  DurationMicros cycle_length = MillisToMicros(120);
  /// Ablation switch: when false the SWM ingestion estimator is bypassed
  /// and slack degenerates to the deterministic Eq. 1 on the raw deadline
  /// (no network-delay/periodicity awareness).
  bool use_estimator = true;

  /// Memory management (Sec. 3.4). When disabled the policy is the paper's
  /// "Klink (w/o MM)" variant and the engine's backpressure is the only
  /// defense against memory exhaustion.
  bool enable_memory_management = true;
  /// b: memory utilization fraction that activates the MM policy.
  double memory_bound_fraction = 0.55;
  /// MM runs until this fraction of the consumed memory has been freed...
  double mm_release_fraction = 0.25;
  /// ...or this much virtual time elapsed, whichever comes first.
  DurationMicros mm_max_duration = SecondsToMicros(1);

  /// Modeled evaluation overhead: fixed virtual micros per evaluated query
  /// plus per slack-integration step (charged to the engine's cycle
  /// budget; Fig. 9d). This models the *paper's* evaluator, which walks
  /// every query each cycle — the incremental slack index below cuts the
  /// wall-clock cost of SelectQueries, not the modeled virtual cost.
  double eval_cost_per_query_micros = 55.0;
  double eval_cost_per_step_micros = 8.0;

  /// Rejects a confidence outside (0, 1] (klink_run --confidence), which
  /// the SWM estimator would abort on.
  Status Validate() const;
};

/// The Klink evaluator (Sec. 3, Alg. 1): schedules the query with the
/// least expected slack — the idle time it can mask before its next SWM —
/// and switches to the memory-release policy of Sec. 3.4 while memory
/// utilization exceeds the bound b. One estimator is maintained per
/// (windowed operator, input stream); a query's slack is the minimum over
/// its streams (Sec. 3.3).
///
/// Scheduling is unit-granular: unsharded queries are one unit, sharded
/// queries contribute one unit per lane (sched/policy.h UnitKey). A lane's
/// slack is the minimum over *its* streams only, with the lane's own drain
/// cost, so a straggling shard is prioritized independently of its idle
/// siblings; lanes without windowed streams (the partition prefix and the
/// merge suffix between sweeps) rank by drain cost like windowless
/// queries. Memory-mode cycles keep whole-query granularity — the memory
/// plan reasons over entire pipelines.
///
/// Wall-clock cost: on engine-built (incremental) snapshots the policy
/// keeps per-cycle work proportional to the set of queries whose state
/// changed, not to the number of deployed queries. Slack is a min over
/// per-stream terms that fall into three classes while a query is
/// untouched (no ingest, no execution, no estimator epoch):
///   - constant  (windowless, or cold-start stream with no deadline),
///   - linear    (slack = base - now: overdue prediction, or cold-start
///                stream with a deadline),
///   - nonlinear (a valid prediction whose confidence interval is still
///                ahead of `now` — the Gaussian integration of Alg. 1).
/// Units with any nonlinear stream stay "hot" and are re-evaluated
/// exactly every cycle (the integral genuinely changes with `now`; the
/// paper's evaluator does the same work). All other units go "cold":
/// their constant/linear lower bounds are indexed in two lazy-deletion
/// min-heaps, and selection pops candidates best-first, re-evaluating each
/// popped candidate with the exact seed expression, until the heap bound
/// proves no remaining unit can enter the top-k. Selections are therefore
/// identical to the full-scan evaluator; only wall-clock cost changes.
/// Non-incremental (hand-built) snapshots and memory-mode cycles use the
/// full scan unchanged.
class KlinkPolicy final : public SchedulingPolicy {
 public:
  explicit KlinkPolicy(const KlinkPolicyConfig& config = {});

  std::string name() const override {
    return config_.enable_memory_management ? "Klink" : "Klink (w/o MM)";
  }
  void SelectQueries(const RuntimeSnapshot& snapshot, int slots,
                     Selection* out) override;
  double EvaluationCostMicros(const RuntimeSnapshot& snapshot) override;

  /// ---- introspection --------------------------------------------------
  const KlinkPolicyConfig& config() const { return config_; }
  bool in_memory_mode() const { return mm_active_; }
  int64_t memory_mode_cycles() const { return mm_cycles_; }
  /// Aggregate SWM-ingestion estimation accuracy across all streams.
  double EstimatorAccuracy() const;
  int64_t total_predictions() const;
  /// Mean absolute error of the frozen point predictions vs actual SWM
  /// ingestion times, in virtual micros (Fig. 9c companion metric; more
  /// sensitive than interval hit rate under heavy-tailed delays).
  double EstimatorMeanAbsErrorMicros() const;
  /// Expected slack of query `id` computed when it was last evaluated —
  /// the minimum over its units — or 0 if unknown (diagnostics/tests). On
  /// incremental snapshots cold units are not re-evaluated every cycle, so
  /// the value may date from an earlier cycle (linear terms drift with
  /// `now`).
  double LastSlack(QueryId id) const;
  /// Expected slack of one lane of `id` (-1 = the whole-query unit of an
  /// unsharded query), or 0 if never evaluated (reporter/tests).
  double LastSlack(QueryId id, int lane) const;
  /// The estimator of one stream, or nullptr (diagnostics/tests).
  const KlinkEstimator* EstimatorFor(QueryId id, int op_index,
                                     int stream) const;

 private:
  /// Per-stream slack classification accumulated by EvaluateUnitSlack (see
  /// the class comment): exact minima of the constant terms and of the
  /// linear bases (slack = linear_min - now), plus whether any stream
  /// still needs the per-cycle Gaussian integration.
  struct SlackClasses {
    double const_min = 0.0;   // initialized to +inf by EvaluateUnitSlack
    double linear_min = 0.0;  // initialized to +inf by EvaluateUnitSlack
    bool has_nonlinear = false;
  };

  /// Incremental-index bookkeeping for one lane of a live query.
  struct LaneCache {
    bool hot = true;
    /// Valid while cold (readiness cannot change without a touch).
    bool ready = false;
  };

  /// Incremental-index bookkeeping for one live query. A touch re-heats
  /// every lane: ingest and execution both funnel through shared queues of
  /// the query, so per-lane touch tracking would buy nothing.
  struct CacheEntry {
    /// Bumped whenever the query is touched; heap entries carrying an
    /// older version are stale and skipped at pop time.
    uint64_t version = 0;
    /// Parallel to QueryInfo::lanes (size is fixed at deploy time).
    std::vector<LaneCache> lanes;
    /// Estimator keys of the query's streams, for cleanup on detach.
    std::vector<uint64_t> stream_keys;
  };

  /// Stable key for one stream of one windowed operator of one query.
  static uint64_t StreamKey(QueryId q, int op_index, int stream) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(q)) << 24) |
           (static_cast<uint64_t>(static_cast<uint32_t>(op_index)) << 8) |
           static_cast<uint64_t>(static_cast<uint32_t>(stream));
  }

  /// Updates estimators with this cycle's progress and computes the slack
  /// of one unit: min over the lane's streams with the lane's drain cost
  /// (`lane_idx` indexes QueryInfo::lanes). Also accumulates the overhead
  /// step count into eval_steps_. When `cls` is non-null it receives the
  /// per-stream classification.
  double EvaluateUnitSlack(const QueryInfo& info, size_t lane_idx,
                           TimeMicros now, SlackClasses* cls = nullptr);
  /// Marks every lane of `id` hot and refreshes its cached stream keys;
  /// `info` must be the query's live snapshot entry.
  void MarkQueryHot(const QueryInfo& info);

  void UpdateMemoryMode(const RuntimeSnapshot& snapshot);

  /// The seed evaluator: exact full scan over every snapshot entry. Used
  /// for non-incremental snapshots and during memory mode.
  void SelectFullScan(const RuntimeSnapshot& snapshot, int slots,
                      Selection* out);
  /// O(touched + popped) evaluator for incremental snapshots.
  void SelectIncremental(const RuntimeSnapshot& snapshot, int slots,
                         Selection* out);
  /// Drops all per-query policy state of a detached query, including its
  /// stream estimators.
  void RetireQueryState(QueryId id);
  void EraseEstimatorsByQuery(QueryId id);
  /// Rebuilds heaps and caches from scratch (first incremental cycle,
  /// after a full-scan cycle, or when lazy-deletion garbage piles up).
  void RebuildIncrementalState(const RuntimeSnapshot& snapshot);
  /// KLINK_AUDIT: recomputes the selection with the full scan and checks
  /// the incremental result matches exactly.
  void AuditIncremental(const RuntimeSnapshot& snapshot, int slots,
                        const Selection& out);

  KlinkPolicyConfig config_;
  std::unordered_map<uint64_t, std::unique_ptr<KlinkEstimator>> estimators_;
  /// Slack of each unit when it was last evaluated, keyed by UnitKey.
  std::unordered_map<int64_t, double> last_slack_;
  bool mm_active_ = false;
  double mm_entry_utilization_ = 0.0;
  TimeMicros mm_entry_time_ = 0;
  int64_t mm_cycles_ = 0;
  // Overhead accumulated by SelectQueries since the engine last collected
  // it via EvaluationCostMicros (one-cycle lag).
  double pending_eval_cost_ = 0.0;
  int64_t eval_steps_ = 0;
  int64_t eval_queries_ = 0;

  // ---- incremental slack index ----------------------------------------
  std::unordered_map<QueryId, CacheEntry> cache_;
  /// Total lanes across cache_ entries (sizes the lazy-deletion cap).
  size_t cache_lanes_ = 0;
  /// Units re-evaluated exactly every cycle (ordered for determinism).
  std::set<int64_t> hot_;
  /// Ready cold units by constant slack (key = slack).
  DeadlineIndex const_heap_;
  /// Ready cold units by linear base (key - now = slack).
  DeadlineIndex linear_heap_;
  /// Caches and heaps must be rebuilt before the next incremental cycle.
  bool rebuild_ = true;
  const bool audit_;
};

}  // namespace klink

#endif  // KLINK_KLINK_KLINK_POLICY_H_
