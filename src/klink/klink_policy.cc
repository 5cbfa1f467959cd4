#include "src/klink/klink_policy.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "src/klink/memory_manager.h"
#include "src/klink/slack.h"

namespace klink {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Status KlinkPolicyConfig::Validate() const {
  if (!(confidence > 0.0 && confidence <= 1.0)) {
    return Status::InvalidArgument(
        "confidence (--confidence) must lie in (0, 1]");
  }
  return Status::Ok();
}

KlinkPolicy::KlinkPolicy(const KlinkPolicyConfig& config) : config_(config) {}

KlinkEstimator& KlinkPolicy::EstimatorIn(EstimatorGroup& group, int op_index,
                                         int stream) {
  for (StreamEstimator& e : group) {
    if (e.op_index == op_index && e.stream == stream) return e.estimator;
  }
  return group
      .emplace_back(StreamEstimator{
          op_index, stream,
          KlinkEstimator(config_.history_epochs, config_.confidence)})
      .estimator;
}

double KlinkPolicy::EvaluateUnitSlack(const QueryInfo& info,
                                      const LaneInfo& unit, TimeMicros now,
                                      EstimatorGroup* group) {
  const double now_d = static_cast<double>(now);
  // Pending corrections drain through the pipeline ahead of the sweep just
  // like queued events do; without this term the slack of lateness-heavy
  // units is systematically optimistic.
  const double cost = unit.drain_cost_micros + unit.refire_debt_micros;
  if (unit.streams_begin == unit.streams_end) {
    // Windowless unit (a windowless query, or a lane holding no windowed
    // operator — the partition prefix and merge suffix of a sharded
    // query): no deadline to miss; order by drain cost so heavy backlogs
    // still make progress once windowed units have slack.
    return std::numeric_limits<double>::max() / 4.0 - cost;
  }
  double min_slack = std::numeric_limits<double>::max();
  for (int si = unit.streams_begin; si < unit.streams_end; ++si) {
    const StreamProgress& progress = info.streams[static_cast<size_t>(si)];
    KlinkEstimator& est =
        EstimatorIn(*group, progress.op_index, progress.stream);
    est.Observe(progress);
    const IngestionPrediction pred =
        config_.use_estimator ? est.Predict(progress) : IngestionPrediction{};
    double slack;
    if (pred.valid) {
      const SlackResult r = ComputeExpectedSlack(
          now_d, cost, pred, static_cast<double>(config_.cycle_length));
      slack = r.slack;
      eval_steps_ += r.steps;
    } else {
      slack = FallbackSlack(
          now_d, cost,
          static_cast<double>(progress.upcoming_deadline == kNoTime
                                  ? now
                                  : progress.upcoming_deadline));
    }
    min_slack = std::min(min_slack, slack);  // Sec. 3.3: min over streams
  }
  return min_slack;
}

namespace {

/// Memory mode ends once this fraction of the utilization at entry has been
/// freed...
constexpr double kMmReleaseFraction = 0.25;
/// ...or after this much virtual time, whichever comes first.
constexpr DurationMicros kMmMaxDuration = SecondsToMicros(1);

}  // namespace

void KlinkPolicy::UpdateMemoryMode(const RuntimeSnapshot& snapshot) {
  if (!config_.enable_memory_management) {
    mm_active_ = false;
    return;
  }
  if (!mm_active_) {
    if (snapshot.memory_utilization >= kMemoryBoundFraction) {
      mm_active_ = true;
      mm_entry_utilization_ = snapshot.memory_utilization;
      mm_entry_time_ = snapshot.now;
    }
    return;
  }
  // Exit when the release target is met or the time budget elapsed. Sec.
  // 3.4 runs the MM policy "until half of the consumed memory has been
  // freed or after three seconds have elapsed"; these thresholds are lower
  // (DESIGN.md "Known deviations").
  const double release_target =
      mm_entry_utilization_ * (1.0 - kMmReleaseFraction);
  if (snapshot.memory_utilization <= release_target ||
      snapshot.now - mm_entry_time_ >= kMmMaxDuration) {
    mm_active_ = false;
  }
}

void KlinkPolicy::SelectQueries(const RuntimeSnapshot& snapshot, int slots,
                                Selection* out) {
  eval_steps_ = 0;
  UpdateMemoryMode(snapshot);
  // Detached queries release their estimators; the engine's snapshot
  // reports each retirement exactly once.
  for (QueryId id : snapshot.detached) estimators_.erase(id);

  // Evaluate slack for every unit each cycle: estimators must observe
  // stream progress continuously, and LastSlack() stays fresh.
  last_slack_.clear();
  ranked_.clear();
  memory_ranked_.clear();
  for (const QueryInfo& info : snapshot.queries) {
    EstimatorGroup* group =
        info.streams.empty() ? nullptr : &estimators_[info.id];
    double min_slack = kInf;
    for (const LaneInfo& unit : info.units()) {
      const double slack = EvaluateUnitSlack(info, unit, snapshot.now, group);
      const SlotAssignment key{info.id, unit.lane};
      last_slack_.emplace_back(key, slack);
      min_slack = std::min(min_slack, slack);
      if (!mm_active_ && unit.queued_events > 0) {
        ranked_.emplace_back(slack, key);
      }
    }
    if (mm_active_ && QueryIsReady(info)) {
      memory_ranked_.push_back(MemoryRank{
          ComputeMemoryPlan(info, static_cast<double>(config_.cycle_length))
              .potential_events,
          min_slack, info.id});
    }
  }
  // Modeled evaluation overhead, charged to the engine's cycle budget
  // (Fig. 9d): fixed virtual micros per evaluated query plus per
  // slack-integration step. It models the paper's evaluator, which walks
  // every query each cycle, as this loop does.
  constexpr double kEvalCostPerQueryMicros = 55.0;
  constexpr double kEvalCostPerStepMicros = 8.0;
  pending_eval_cost_ +=
      static_cast<double>(snapshot.queries.size()) * kEvalCostPerQueryMicros +
      static_cast<double>(eval_steps_) * kEvalCostPerStepMicros;

  if (mm_active_) {
    ++mm_cycles_;
    // Sec. 3.4: schedule the pipelines with the largest potential memory
    // reduction so memory mode drains decisively and exits quickly; ties
    // break toward the least slack to keep optimizing latency. Memory
    // mode keeps whole-query granularity: the memory plan reasons over
    // entire pipelines, and a whole-query slot drains every lane in
    // topological order.
    const size_t take = std::min(memory_ranked_.size(),
                                 static_cast<size_t>(std::max(slots, 0)));
    std::partial_sort(memory_ranked_.begin(),
                      memory_ranked_.begin() + static_cast<long>(take),
                      memory_ranked_.end(),
                      [](const MemoryRank& a, const MemoryRank& b) {
                        if (a.reduction != b.reduction) {
                          return a.reduction > b.reduction;
                        }
                        return a.slack < b.slack;
                      });
    for (size_t i = 0; i < take; ++i) out->Add(memory_ranked_[i].id);
  } else {
    const size_t take = std::min(
        ranked_.size(), static_cast<size_t>(std::max(slots, 0)));
    std::partial_sort(ranked_.begin(),
                      ranked_.begin() + static_cast<long>(take),
                      ranked_.end());
    for (size_t i = 0; i < take; ++i) {
      out->Add(ranked_[i].second.query, ranked_[i].second.lane);
    }
  }
}

double KlinkPolicy::EvaluationCostMicros(const RuntimeSnapshot& /*snapshot*/) {
  // Charged with one cycle of lag: the engine bills the cost accumulated
  // by the evaluation rounds of the previous cycle.
  const double cost = pending_eval_cost_;
  pending_eval_cost_ = 0.0;
  return cost;
}

double KlinkPolicy::EstimatorAccuracy() const {
  int64_t hits = 0, preds = 0;
  for (const auto& [id, group] : estimators_) {
    for (const StreamEstimator& e : group) {
      hits += e.estimator.hits();
      preds += e.estimator.predictions();
    }
  }
  return preds == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(preds);
}

int64_t KlinkPolicy::total_predictions() const {
  int64_t preds = 0;
  for (const auto& [id, group] : estimators_) {
    for (const StreamEstimator& e : group) preds += e.estimator.predictions();
  }
  return preds;
}

double KlinkPolicy::EstimatorMeanAbsErrorMicros() const {
  int64_t preds = 0;
  double err = 0.0;
  for (const auto& [id, group] : estimators_) {
    for (const StreamEstimator& e : group) {
      preds += e.estimator.predictions();
      err += e.estimator.abs_error_sum_micros();
    }
  }
  return preds == 0 ? 0.0 : err / static_cast<double>(preds);
}

const KlinkEstimator* KlinkPolicy::EstimatorFor(QueryId id, int op_index,
                                                int stream) const {
  const auto group = estimators_.find(id);
  if (group == estimators_.end()) return nullptr;
  for (const StreamEstimator& e : group->second) {
    if (e.op_index == op_index && e.stream == stream) return &e.estimator;
  }
  return nullptr;
}

double KlinkPolicy::LastSlack(QueryId id) const {
  double best = kInf;
  bool found = false;
  for (const auto& [unit, slack] : last_slack_) {
    if (unit.query != id) continue;
    best = std::min(best, slack);
    found = true;
  }
  return found ? best : 0.0;
}

double KlinkPolicy::LastSlack(QueryId id, int lane) const {
  const SlotAssignment unit{id, lane};
  for (const auto& [u, slack] : last_slack_) {
    if (u == unit) return slack;
  }
  return 0.0;
}

}  // namespace klink
