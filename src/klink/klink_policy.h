#ifndef KLINK_KLINK_KLINK_POLICY_H_
#define KLINK_KLINK_KLINK_POLICY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

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
  /// budget; Fig. 9d). This models the paper's evaluator, which walks
  /// every query each cycle, as SelectQueries does.
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
/// Every cycle evaluates the slack of every unit of every query, as the
/// paper's evaluator does: estimators observe stream progress continuously
/// and LastSlack() is always current.
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
  /// Expected slack of query `id` in the last cycle — the minimum over its
  /// units — or 0 if unknown (diagnostics/tests).
  double LastSlack(QueryId id) const;
  /// Expected slack of one lane of `id` (-1 = the whole-query unit of an
  /// unsharded query), or 0 if never evaluated (reporter/tests).
  double LastSlack(QueryId id, int lane) const;
  /// The estimator of one stream, or nullptr (diagnostics/tests).
  const KlinkEstimator* EstimatorFor(QueryId id, int op_index,
                                     int stream) const;

 private:
  /// Stable key for one stream of one windowed operator of one query.
  static uint64_t StreamKey(QueryId q, int op_index, int stream) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(q)) << 24) |
           (static_cast<uint64_t>(static_cast<uint32_t>(op_index)) << 8) |
           static_cast<uint64_t>(static_cast<uint32_t>(stream));
  }

  /// Updates estimators with this cycle's progress and computes the slack
  /// of one unit: min over the lane's streams with the lane's drain cost
  /// (`lane_idx` indexes QueryInfo::lanes). Also accumulates the overhead
  /// step count into eval_steps_.
  double EvaluateUnitSlack(const QueryInfo& info, size_t lane_idx,
                           TimeMicros now);

  void UpdateMemoryMode(const RuntimeSnapshot& snapshot);
  /// Drops the stream estimators of a detached query.
  void EraseEstimatorsByQuery(QueryId id);

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
};

}  // namespace klink

#endif  // KLINK_KLINK_KLINK_POLICY_H_
