#include "src/klink/klink_policy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>
#include <utility>

#include "src/common/check.h"
#include "src/klink/memory_manager.h"
#include "src/klink/slack.h"
#include "src/runtime/audit.h"

namespace klink {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Margin added to heap lower bounds when deciding whether a cold unit
/// could still enter the top-k. Heap keys reconstruct slack as
/// (base - cost) - now while the exact evaluator computes
/// (base - now) - cost; the two differ by a few ulps of the largest
/// intermediate, so the margin scales with |now|. Popped candidates are
/// always re-evaluated exactly — a generous margin costs extra pops, never
/// a wrong selection.
double SlackBoundMargin(double now) { return 1e-3 + std::abs(now) * 1e-9; }

}  // namespace

Status KlinkPolicyConfig::Validate() const {
  if (!(confidence > 0.0 && confidence <= 1.0)) {
    return Status::InvalidArgument(
        "confidence (--confidence) must lie in (0, 1]");
  }
  return Status::Ok();
}

KlinkPolicy::KlinkPolicy(const KlinkPolicyConfig& config)
    : config_(config), audit_(AuditEnabledFromEnv()) {}

double KlinkPolicy::EvaluateUnitSlack(const QueryInfo& info, size_t lane_idx,
                                      TimeMicros now, SlackClasses* cls) {
  const double now_d = static_cast<double>(now);
  const LaneView lane = LaneAt(info, lane_idx);
  // Pending corrections drain through the pipeline ahead of the sweep just
  // like queued events do; without this term the slack of lateness-heavy
  // units is systematically optimistic.
  const double cost = lane.drain_cost_micros + lane.refire_debt_micros;
  if (cls != nullptr) {
    cls->const_min = kInf;
    cls->linear_min = kInf;
    cls->has_nonlinear = false;
  }
  if (lane.streams_begin == lane.streams_end) {
    // Windowless unit (a windowless query, or a lane holding no windowed
    // operator — the partition prefix and merge suffix of a sharded
    // query): no deadline to miss; order by drain cost so heavy backlogs
    // still make progress once windowed units have slack.
    const double slack = std::numeric_limits<double>::max() / 4.0 - cost;
    if (cls != nullptr) cls->const_min = slack;
    return slack;
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
      if (cls != nullptr) {
        if (pred.hi <= now_d) {
          // Overdue: slack = (pred.mean - now) - cost, linear in now. The
          // prediction is frozen while the query stays untouched and the
          // interval can only recede further into the past.
          cls->linear_min = std::min(cls->linear_min, pred.mean - cost);
        } else {
          cls->has_nonlinear = true;
        }
      }
    } else {
      slack = FallbackSlack(
          now_d, cost,
          static_cast<double>(progress.upcoming_deadline == kNoTime
                                  ? now
                                  : progress.upcoming_deadline));
      if (cls != nullptr) {
        if (progress.upcoming_deadline == kNoTime) {
          cls->const_min = std::min(cls->const_min, slack);  // exactly -cost
        } else {
          cls->linear_min = std::min(
              cls->linear_min,
              static_cast<double>(progress.upcoming_deadline) - cost);
        }
      }
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
  eval_queries_ = 0;
  UpdateMemoryMode(snapshot);
  // Detached queries release their policy state no matter which evaluator
  // runs this cycle; the journal reports each detach exactly once.
  if (snapshot.incremental) {
    for (QueryId id : snapshot.detached) RetireQueryState(id);
  }
  if (!snapshot.incremental || mm_active_) {
    SelectFullScan(snapshot, slots, out);
    // The full scan does not maintain heaps or caches; rebuild them on the
    // next incremental cycle.
    rebuild_ = true;
    return;
  }
  SelectIncremental(snapshot, slots, out);
}

void KlinkPolicy::SelectFullScan(const RuntimeSnapshot& snapshot, int slots,
                                 Selection* out) {
  // Evaluate slack for every unit each cycle: estimators must observe
  // stream progress continuously, and LastSlack() stays fresh.
  last_slack_.clear();
  std::vector<std::pair<double, int64_t>> ranked;  // ready (slack, unit)
  std::unordered_map<QueryId, double> query_slack;
  std::unordered_map<QueryId, double> mm_reduction;
  for (const QueryInfo& info : snapshot.queries) {
    // klink-lint: allow(sched-scan): this IS the exact evaluator — the
    // incremental path delegates to it for correctness checks and MM.
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
    ++eval_queries_;
  }
  pending_eval_cost_ +=
      static_cast<double>(eval_queries_) * config_.eval_cost_per_query_micros +
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

void KlinkPolicy::MarkQueryHot(const QueryInfo& info) {
  CacheEntry& c = cache_[info.id];
  ++c.version;  // invalidates any heap entries of the query's units
  const size_t num_lanes = NumLanes(info);
  if (c.lanes.size() != num_lanes) {
    cache_lanes_ += num_lanes - c.lanes.size();
    c.lanes.resize(num_lanes);
  }
  for (size_t l = 0; l < num_lanes; ++l) {
    c.lanes[l].hot = true;
    hot_.insert(UnitKey(info.id, LaneAt(info, l).lane));
  }
  c.stream_keys.clear();
  c.stream_keys.reserve(info.streams.size());
  for (const StreamProgress& p : info.streams) {
    c.stream_keys.push_back(StreamKey(info.id, p.op_index, p.stream));
  }
}

void KlinkPolicy::RetireQueryState(QueryId id) {
  const auto it = cache_.find(id);
  if (it != cache_.end()) {
    for (uint64_t key : it->second.stream_keys) estimators_.erase(key);
    // Lane ids are -1 for a single-lane (unsharded) entry and 0..n-1 for a
    // sharded one (snapshot.cc); erasing both spellings covers either.
    for (int l = -1; l < static_cast<int>(it->second.lanes.size()); ++l) {
      last_slack_.erase(UnitKey(id, l));
    }
    cache_lanes_ -= it->second.lanes.size();
    cache_.erase(it);
  } else {
    // The query was never cached (e.g. attached and detached while memory
    // mode kept the policy on the full-scan path); sweep by id instead.
    EraseEstimatorsByQuery(id);
    for (auto it2 = last_slack_.begin(); it2 != last_slack_.end();) {
      if (UnitQuery(it2->first) == id) {
        it2 = last_slack_.erase(it2);
      } else {
        ++it2;
      }
    }
  }
  // All units of `id` form a contiguous range of the ordered hot set.
  hot_.erase(hot_.lower_bound(UnitKey(id, -1)),
             hot_.lower_bound(UnitKey(id + 1, -1)));
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

void KlinkPolicy::RebuildIncrementalState(const RuntimeSnapshot& snapshot) {
  const_heap_.Clear();
  linear_heap_.Clear();
  hot_.clear();
  // Drop state of queries that vanished while the index was not
  // maintained (full-scan cycles consume the journal without applying it).
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (snapshot.Find(it->first) == nullptr) {
      for (uint64_t key : it->second.stream_keys) estimators_.erase(key);
      for (int l = -1; l < static_cast<int>(it->second.lanes.size()); ++l) {
        last_slack_.erase(UnitKey(it->first, l));
      }
      cache_lanes_ -= it->second.lanes.size();
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
  // klink-lint: allow(sched-scan): rebuild cycles only, not steady state.
  for (const QueryInfo& info : snapshot.queries) {
    MarkQueryHot(info);
  }
  rebuild_ = false;
}

void KlinkPolicy::SelectIncremental(const RuntimeSnapshot& snapshot,
                                    int slots, Selection* out) {
  const TimeMicros now = snapshot.now;
  const double now_d = static_cast<double>(now);

  // Lazy deletion leaves stale entries behind; rebuild when they dominate.
  const size_t heap_cap = 4 * cache_lanes_ + 64;
  if (rebuild_ || const_heap_.size() + linear_heap_.size() > heap_cap) {
    RebuildIncrementalState(snapshot);
  } else {
    for (QueryId id : snapshot.touched) {
      const QueryInfo* info = snapshot.Find(id);
      KLINK_CHECK(info != nullptr);  // touched queries are always live
      MarkQueryHot(*info);
    }
  }

  // Re-evaluate the hot set exactly. Units whose streams are all
  // constant/linear go cold: their bounds are pushed into the heaps and
  // they are not visited again until touched.
  for (auto it = hot_.begin(); it != hot_.end();) {
    const int64_t unit = *it;
    const QueryInfo* info = snapshot.Find(UnitQuery(unit));
    KLINK_CHECK(info != nullptr);  // hot units are always live
    CacheEntry& c = cache_.at(UnitQuery(unit));
    const size_t li = LaneIndexOf(UnitLane(unit));
    SlackClasses cls;
    const double slack = EvaluateUnitSlack(*info, li, now, &cls);
    last_slack_[unit] = slack;
    LaneCache& lc = c.lanes[li];
    lc.ready = LaneAt(*info, li).queued_events > 0;
    if (cls.has_nonlinear) {
      lc.hot = true;
      ++it;
      continue;
    }
    lc.hot = false;
    if (lc.ready) {
      if (cls.const_min < kInf) {
        const_heap_.Push({cls.const_min, unit, c.version});
      }
      if (cls.linear_min < kInf) {
        linear_heap_.Push({cls.linear_min, unit, c.version});
      }
    }
    it = hot_.erase(it);
  }

  // Modeled evaluator cost (Fig. 9d): the paper's evaluator walks every
  // query each cycle, so the virtual cost keeps charging the full count —
  // only the wall-clock cost of this function shrank.
  eval_queries_ = static_cast<int64_t>(snapshot.queries.size());
  pending_eval_cost_ +=
      static_cast<double>(eval_queries_) * config_.eval_cost_per_query_micros +
      static_cast<double>(eval_steps_) * config_.eval_cost_per_step_micros;

  const size_t want =
      static_cast<size_t>(std::max(slots, 0));
  if (want > 0) {
    // `best` is the current top-k as (slack, unit), ascending — the same
    // total order as the full scan's comparator.
    std::vector<std::pair<double, int64_t>> best;
    const auto consider = [&best, want](double slack, int64_t unit) {
      const std::pair<double, int64_t> cand{slack, unit};
      const auto pos = std::lower_bound(best.begin(), best.end(), cand);
      if (pos == best.end() && best.size() >= want) return;
      best.insert(pos, cand);
      if (best.size() > want) best.pop_back();
    };
    for (int64_t unit : hot_) {
      const CacheEntry& c = cache_.at(UnitQuery(unit));
      if (c.lanes[LaneIndexOf(UnitLane(unit))].ready) {
        consider(last_slack_.at(unit), unit);
      }
    }
    // Best-first merge over the two heaps. Every popped candidate is
    // re-evaluated with the exact evaluator (cold units have no
    // nonlinear streams, so this adds no integration steps and the
    // estimator Observe is a no-op); popping stops once the heap bound
    // proves no remaining entry can displace the current kth best.
    const double margin = SlackBoundMargin(now_d);
    std::vector<DeadlineIndex::Entry> repush_const, repush_linear;
    std::unordered_set<int64_t> seen;
    const auto valid = [this](const DeadlineIndex::Entry& e) {
      const auto it = cache_.find(UnitQuery(e.id));
      if (it == cache_.end() || it->second.version != e.version) return false;
      const LaneCache& lc = it->second.lanes[LaneIndexOf(UnitLane(e.id))];
      return !lc.hot && lc.ready;
    };
    while (true) {
      while (!const_heap_.empty() && !valid(const_heap_.Top())) {
        const_heap_.Pop();
      }
      while (!linear_heap_.empty() && !valid(linear_heap_.Top())) {
        linear_heap_.Pop();
      }
      const double b0 = const_heap_.empty() ? kInf : const_heap_.Top().key;
      const double b1 =
          linear_heap_.empty() ? kInf : linear_heap_.Top().key - now_d;
      const double bound = std::min(b0, b1);
      if (bound == kInf) break;
      if (best.size() >= want && bound > best.back().first + margin) break;
      DeadlineIndex* heap = b0 <= b1 ? &const_heap_ : &linear_heap_;
      std::vector<DeadlineIndex::Entry>& repush =
          b0 <= b1 ? repush_const : repush_linear;
      const DeadlineIndex::Entry entry = heap->Top();
      heap->Pop();
      repush.push_back(entry);  // entries survive across cycles
      if (!seen.insert(entry.id).second) continue;  // other heap's twin
      const QueryInfo* info = snapshot.Find(UnitQuery(entry.id));
      KLINK_CHECK(info != nullptr);
      const double slack =
          EvaluateUnitSlack(*info, LaneIndexOf(UnitLane(entry.id)), now);
      last_slack_[entry.id] = slack;
      consider(slack, entry.id);
    }
    for (const DeadlineIndex::Entry& e : repush_const) const_heap_.Push(e);
    for (const DeadlineIndex::Entry& e : repush_linear) {
      linear_heap_.Push(e);
    }
    for (const auto& [slack, unit] : best) {
      out->AddLane(UnitQuery(unit), UnitLane(unit));
    }
  }

  if (audit_) AuditIncremental(snapshot, slots, *out);
}

void KlinkPolicy::AuditIncremental(const RuntimeSnapshot& snapshot,
                                   int slots, const Selection& out) {
  const_heap_.AuditHeapProperty();
  linear_heap_.AuditHeapProperty();
  // Recompute the selection with the exact evaluator and require a unit-
  // for-unit match. Observe() is a no-op on re-observation within a cycle,
  // and the step counter is restored, so the audit is side-effect free.
  const int64_t saved_steps = eval_steps_;
  std::vector<std::pair<double, int64_t>> ranked;
  for (const QueryInfo& info : snapshot.queries) {
    // klink-lint: allow(sched-scan): audit-only full recomputation.
    for (size_t l = 0; l < NumLanes(info); ++l) {
      const LaneView lane = LaneAt(info, l);
      if (lane.queued_events <= 0) continue;
      ranked.emplace_back(EvaluateUnitSlack(info, l, snapshot.now),
                          UnitKey(info.id, lane.lane));
    }
  }
  eval_steps_ = saved_steps;
  std::sort(ranked.begin(), ranked.end());
  const size_t take =
      std::min(ranked.size(), static_cast<size_t>(std::max(slots, 0)));
  KLINK_CHECK_EQ(static_cast<int64_t>(out.size()),
                 static_cast<int64_t>(take));
  for (size_t i = 0; i < take; ++i) {
    KLINK_CHECK_EQ(out[i].query, UnitQuery(ranked[i].second));
    KLINK_CHECK_EQ(out[i].lane, UnitLane(ranked[i].second));
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
