#ifndef KLINK_KLINK_KLINK_POLICY_H_
#define KLINK_KLINK_KLINK_POLICY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/klink/swm_estimator.h"
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
  /// defense against memory exhaustion. Its thresholds are constants
  /// (KlinkPolicy::kMemoryBoundFraction and klink_policy.cc).
  bool enable_memory_management = true;

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
/// queries contribute one unit per lane (QueryInfo::units). A lane's
/// slack is the minimum over *its* streams only, with the lane's own drain
/// cost, so a straggling shard is prioritized independently of its idle
/// siblings; lanes without windowed streams (the partition prefix and the
/// merge suffix between sweeps) rank by drain cost like windowless
/// queries. Memory-mode cycles keep whole-query granularity — the memory
/// plan reasons over entire pipelines.
///
/// Every cycle evaluates the slack of every unit of every query, as the
/// paper's evaluator does: estimators observe stream progress continuously
/// and LastSlack() is always current. That walk is per-cycle, per-tenant
/// work, so it allocates nothing in steady state: a query's estimators
/// form one group found with one lookup, and the rankings and last slacks
/// live in member vectors reused from cycle to cycle.
class KlinkPolicy final : public SchedulingPolicy {
 public:
  explicit KlinkPolicy(const KlinkPolicyConfig& config = {});

  std::string name() const override {
    return config_.enable_memory_management ? "Klink" : "Klink (w/o MM)";
  }
  void SelectQueries(const RuntimeSnapshot& snapshot, int slots,
                     Selection* out) override;
  double EvaluationCostMicros(const RuntimeSnapshot& snapshot) override;

  /// b: the memory utilization at which the MM policy (Sec. 3.4) starts.
  static constexpr double kMemoryBoundFraction = 0.55;

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
  /// Expected slack of query `id` in the last cycle — the minimum over its
  /// units — or 0 if unknown (diagnostics/tests). A linear scan.
  double LastSlack(QueryId id) const;
  /// Expected slack of one lane of `id` (-1 = the whole-query unit of an
  /// unsharded query) in the last cycle, or 0 if not evaluated then
  /// (reporter/tests). A linear scan.
  double LastSlack(QueryId id, int lane) const;
  /// The estimator of one stream, or nullptr (diagnostics/tests).
  const KlinkEstimator* EstimatorFor(QueryId id, int op_index,
                                     int stream) const;

 private:
  /// The estimator of one stream of one windowed operator of a query.
  struct StreamEstimator {
    int op_index;
    int stream;
    KlinkEstimator estimator;
  };
  /// One query's stream estimators, in the order first evaluated. A query
  /// has a few streams, so finding one is a short scan.
  using EstimatorGroup = std::vector<StreamEstimator>;

  /// One ready query in a memory-mode cycle.
  struct MemoryRank {
    /// MemoryPlan::potential_events: larger ranks first.
    double reduction;
    /// Least slack over the query's units: breaks reduction ties.
    double slack;
    QueryId id;
  };

  /// Updates estimators with this cycle's progress and computes the slack
  /// of one of `info`'s units: min over the unit's streams with the unit's
  /// drain cost. `group` holds the query's estimators; null when the query
  /// has no streams. Also accumulates the overhead step count into
  /// eval_steps_.
  double EvaluateUnitSlack(const QueryInfo& info, const LaneInfo& unit,
                           TimeMicros now, EstimatorGroup* group);
  /// The estimator of (op_index, stream) in `group`, created on first use.
  KlinkEstimator& EstimatorIn(EstimatorGroup& group, int op_index,
                              int stream);

  void UpdateMemoryMode(const RuntimeSnapshot& snapshot);

  KlinkPolicyConfig config_;
  /// Estimator groups by query; a detached query's group is erased whole.
  std::unordered_map<QueryId, EstimatorGroup> estimators_;
  /// (unit, slack) of every unit evaluated in the last cycle, in snapshot
  /// order.
  std::vector<std::pair<SlotAssignment, double>> last_slack_;
  /// This cycle's ready units as (slack, unit), outside memory mode:
  /// least slack first, ties by (query, lane).
  std::vector<std::pair<double, SlotAssignment>> ranked_;
  /// This cycle's ready queries in memory mode, in snapshot order.
  std::vector<MemoryRank> memory_ranked_;
  bool mm_active_ = false;
  double mm_entry_utilization_ = 0.0;
  TimeMicros mm_entry_time_ = 0;
  int64_t mm_cycles_ = 0;
  // Overhead accumulated by SelectQueries since the engine last collected
  // it via EvaluationCostMicros (one-cycle lag).
  double pending_eval_cost_ = 0.0;
  int64_t eval_steps_ = 0;
};

}  // namespace klink

#endif  // KLINK_KLINK_KLINK_POLICY_H_
