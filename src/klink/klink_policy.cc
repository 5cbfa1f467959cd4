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

double KlinkPolicy::EvaluateUnitSlack(const QueryInfo& info, size_t lane_idx,
                                      TimeMicros now) {
  const double now_d = static_cast<double>(now);
  const LaneView lane = LaneAt(info, lane_idx);
  // Pending corrections drain through the pipeline ahead of the sweep just
  // like queued events do; without this term the slack of lateness-heavy
  // units is systematically optimistic.
  const double cost = lane.drain_cost_micros + lane.refire_debt_micros;
  if (lane.streams_begin == lane.streams_end) {
    // Windowless unit (a windowless query, or a lane holding no windowed
    // operator — the partition prefix and merge suffix of a sharded
    // query): no deadline to miss; order by drain cost so heavy backlogs
    // still make progress once windowed units have slack.
    return std::numeric_limits<double>::max() / 4.0 - cost;
  }
  double min_slack = std::numeric_limits<double>::max();
  for (int si = lane.streams_begin; si < lane.streams_end; ++si) {
    const StreamProgress& progress = info.streams[static_cast<size_t>(si)];
    KlinkEstimator* est;
    const uint64_t key = StreamKey(info.id, progress.op_index,
                                   progress.stream);
    const auto it = estimators_.find(key);
    if (it == estimators_.end()) {
      est = estimators_
                .emplace(key, std::make_unique<KlinkEstimator>(
                                  config_.history_epochs, config_.confidence))
                .first->second.get();
    } else {
      est = it->second.get();
    }
    est->Observe(progress);
    const IngestionPrediction pred =
        config_.use_estimator ? est->Predict(progress) : IngestionPrediction{};
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

void KlinkPolicy::UpdateMemoryMode(const RuntimeSnapshot& snapshot) {
  if (!config_.enable_memory_management) {
    mm_active_ = false;
    return;
  }
  if (!mm_active_) {
    if (snapshot.memory_utilization >= config_.memory_bound_fraction) {
      mm_active_ = true;
      mm_entry_utilization_ = snapshot.memory_utilization;
      mm_entry_time_ = snapshot.now;
    }
    return;
  }
  // Exit when the release target is met or the time budget elapsed
  // (Sec. 3.4: "until half of the consumed memory has been freed or after
  // three seconds have elapsed").
  const double release_target =
      mm_entry_utilization_ * (1.0 - config_.mm_release_fraction);
  if (snapshot.memory_utilization <= release_target ||
      snapshot.now - mm_entry_time_ >= config_.mm_max_duration) {
    mm_active_ = false;
  }
}

void KlinkPolicy::SelectQueries(const RuntimeSnapshot& snapshot, int slots,
                                Selection* out) {
  eval_steps_ = 0;
  UpdateMemoryMode(snapshot);
  // Detached queries release their estimators; the engine's journal
  // reports each detach exactly once.
  for (QueryId id : snapshot.detached) EraseEstimatorsByQuery(id);

  // Evaluate slack for every unit each cycle: estimators must observe
  // stream progress continuously, and LastSlack() stays fresh.
  last_slack_.clear();
  std::vector<std::pair<double, int64_t>> ranked;  // ready (slack, unit)
  std::unordered_map<QueryId, double> query_slack;
  std::unordered_map<QueryId, double> mm_reduction;
  for (const QueryInfo& info : snapshot.queries) {
    double min_slack = kInf;
    for (size_t l = 0; l < NumLanes(info); ++l) {
      const LaneView lane = LaneAt(info, l);
      const double slack = EvaluateUnitSlack(info, l, snapshot.now);
      const int64_t unit = UnitKey(info.id, lane.lane);
      last_slack_[unit] = slack;
      min_slack = std::min(min_slack, slack);
      if (!mm_active_ && lane.queued_events > 0) {
        ranked.emplace_back(slack, unit);
      }
    }
    if (mm_active_) {
      query_slack[info.id] = min_slack;
      mm_reduction[info.id] =
          ComputeMemoryPlan(info, static_cast<double>(config_.cycle_length))
              .potential_events;
    }
  }
  pending_eval_cost_ +=
      static_cast<double>(snapshot.queries.size()) *
          config_.eval_cost_per_query_micros +
      static_cast<double>(eval_steps_) * config_.eval_cost_per_step_micros;

  if (mm_active_) {
    ++mm_cycles_;
    // Sec. 3.4: schedule the pipelines with the largest potential memory
    // reduction so memory mode drains decisively and exits quickly; ties
    // break toward the least slack to keep optimizing latency. Memory
    // mode keeps whole-query granularity: the memory plan reasons over
    // entire pipelines, and a whole-query slot drains every lane in
    // topological order.
    SelectTopReadyQueries(
        snapshot, slots,
        [&query_slack, &mm_reduction](const QueryInfo& a, const QueryInfo& b) {
          const double ra = mm_reduction.at(a.id);
          const double rb = mm_reduction.at(b.id);
          if (ra != rb) return ra > rb;
          return query_slack.at(a.id) < query_slack.at(b.id);
        },
        out);
  } else {
    const size_t take = std::min(
        ranked.size(), static_cast<size_t>(std::max(slots, 0)));
    std::partial_sort(ranked.begin(),
                      ranked.begin() + static_cast<long>(take), ranked.end());
    for (size_t i = 0; i < take; ++i) {
      out->AddLane(UnitQuery(ranked[i].second), UnitLane(ranked[i].second));
    }
  }
}

void KlinkPolicy::EraseEstimatorsByQuery(QueryId id) {
  const uint64_t tag = static_cast<uint64_t>(static_cast<uint32_t>(id));
  for (auto it = estimators_.begin(); it != estimators_.end();) {
    if ((it->first >> 24) == tag) {
      it = estimators_.erase(it);
    } else {
      ++it;
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
  for (const auto& [key, est] : estimators_) {
    hits += est->hits();
    preds += est->predictions();
  }
  return preds == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(preds);
}

int64_t KlinkPolicy::total_predictions() const {
  int64_t preds = 0;
  for (const auto& [key, est] : estimators_) preds += est->predictions();
  return preds;
}

double KlinkPolicy::EstimatorMeanAbsErrorMicros() const {
  int64_t preds = 0;
  double err = 0.0;
  for (const auto& [key, est] : estimators_) {
    preds += est->predictions();
    err += est->abs_error_sum_micros();
  }
  return preds == 0 ? 0.0 : err / static_cast<double>(preds);
}

const KlinkEstimator* KlinkPolicy::EstimatorFor(QueryId id, int op_index,
                                                int stream) const {
  const auto it = estimators_.find(StreamKey(id, op_index, stream));
  return it == estimators_.end() ? nullptr : it->second.get();
}

double KlinkPolicy::LastSlack(QueryId id) const {
  double best = kInf;
  bool found = false;
  for (const auto& [unit, slack] : last_slack_) {
    if (UnitQuery(unit) != id) continue;
    best = std::min(best, slack);
    found = true;
  }
  return found ? best : 0.0;
}

double KlinkPolicy::LastSlack(QueryId id, int lane) const {
  const auto it = last_slack_.find(UnitKey(id, lane));
  return it == last_slack_.end() ? 0.0 : it->second;
}

}  // namespace klink
