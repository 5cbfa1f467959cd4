#include "src/klink/klink_policy.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/delay_model.h"
#include "src/query/pipeline_builder.h"
#include "src/runtime/engine.h"
#include "src/workloads/workload.h"

namespace klink {
namespace {

class KlinkPolicyTest : public ::testing::Test {
 protected:
  void Build(int n) {
    queries_.clear();
    snapshot_.queries.clear();
    snapshot_.now = 0;
    snapshot_.memory_utilization = 0.0;
    for (int i = 0; i < n; ++i) {
      PipelineBuilder b(std::string("q").append(std::to_string(i)));
      b.Source("s", 1.0)
          .TumblingAggregate("w", 1.0, SecondsToMicros(1),
                             AggregationKind::kCount)
          .Sink("out", 1.0);
      queries_.push_back(b.Build(i));
      QueryInfo info;
      CollectQueryInfo(*queries_.back(), &info);
      info.whole.queued_events = 10;
      snapshot_.queries.push_back(std::move(info));
    }
  }

  /// Simulates epoch progress so query i's estimator learns an offset and
  /// believes the next SWM arrives at `deadline + offset`.
  void WarmEstimator(KlinkPolicy& policy, int i, TimeMicros offset) {
    for (int e = 1; e <= 8; ++e) {
      StreamProgress& p = snapshot_.queries[static_cast<size_t>(i)].streams[0];
      p.epoch = e;
      p.last_swept_deadline = e * SecondsToMicros(1);
      p.last_sweep_ingest = p.last_swept_deadline + offset;
      p.upcoming_deadline = (e + 1) * SecondsToMicros(1);
      Selection out;
      policy.SelectQueries(snapshot_, 0, &out);
    }
  }

  std::vector<std::unique_ptr<Query>> queries_;
  RuntimeSnapshot snapshot_;
};

TEST_F(KlinkPolicyTest, NamesReflectMmFlag) {
  KlinkPolicyConfig with_mm;
  with_mm.enable_memory_management = true;
  KlinkPolicyConfig without = with_mm;
  without.enable_memory_management = false;
  EXPECT_EQ(KlinkPolicy(with_mm).name(), "Klink");
  EXPECT_EQ(KlinkPolicy(without).name(), "Klink (w/o MM)");
}

TEST_F(KlinkPolicyTest, PicksLeastSlackQuery) {
  Build(2);
  KlinkPolicy policy;
  // Query 0's deadline is sooner than query 1's.
  snapshot_.queries[0].streams[0].upcoming_deadline = SecondsToMicros(1);
  snapshot_.queries[1].streams[0].upcoming_deadline = SecondsToMicros(5);
  Selection out;
  policy.SelectQueries(snapshot_, 1, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].query, 0);
  EXPECT_LT(policy.LastSlack(0), policy.LastSlack(1));
}

TEST_F(KlinkPolicyTest, DrainCostReducesSlack) {
  Build(2);
  KlinkPolicy policy;
  snapshot_.queries[0].streams[0].upcoming_deadline = SecondsToMicros(2);
  snapshot_.queries[1].streams[0].upcoming_deadline = SecondsToMicros(2);
  snapshot_.queries[1].whole.drain_cost_micros = 1.5e6;  // heavy backlog
  Selection out;
  policy.SelectQueries(snapshot_, 1, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].query, 1);  // same deadline, bigger backlog -> less slack
}

TEST_F(KlinkPolicyTest, EstimatorsLearnAndSlackUsesIntervals) {
  Build(1);
  KlinkPolicy policy;
  WarmEstimator(policy, 0, /*offset=*/MillisToMicros(300));
  const KlinkEstimator* est = policy.EstimatorFor(0, 1, 0);
  ASSERT_NE(est, nullptr);
  EXPECT_GE(est->tracker().epochs(), 7);
  // With now far before the deadline, slack is positive and roughly the
  // gap to the predicted ingestion.
  snapshot_.now = SecondsToMicros(8);
  snapshot_.queries[0].streams[0].upcoming_deadline = SecondsToMicros(9);
  Selection out;
  policy.SelectQueries(snapshot_, 1, &out);
  EXPECT_NEAR(policy.LastSlack(0), 1.3e6, 0.4e6);
}

TEST_F(KlinkPolicyTest, MemoryModeActivatesAtBound) {
  Build(2);
  KlinkPolicy policy;
  Selection out;
  snapshot_.memory_utilization = 0.4;
  policy.SelectQueries(snapshot_, 1, &out);
  EXPECT_FALSE(policy.in_memory_mode());
  snapshot_.memory_utilization = 0.6;
  out.Clear();
  policy.SelectQueries(snapshot_, 1, &out);
  EXPECT_TRUE(policy.in_memory_mode());
  EXPECT_GE(policy.memory_mode_cycles(), 1);

  // Utilization exactly at the bound b enters memory mode too.
  KlinkPolicy at_bound;
  snapshot_.memory_utilization = KlinkPolicy::kMemoryBoundFraction;
  out.Clear();
  at_bound.SelectQueries(snapshot_, 1, &out);
  EXPECT_TRUE(at_bound.in_memory_mode());
}

TEST_F(KlinkPolicyTest, MemoryModeExitsOnRelease) {
  Build(1);
  KlinkPolicy policy;
  Selection out;
  snapshot_.memory_utilization = 0.6;
  policy.SelectQueries(snapshot_, 1, &out);
  ASSERT_TRUE(policy.in_memory_mode());
  // Released 25% of the entry utilization: 0.6 * 0.75 = 0.45.
  snapshot_.memory_utilization = 0.44;
  out.Clear();
  policy.SelectQueries(snapshot_, 1, &out);
  EXPECT_FALSE(policy.in_memory_mode());
}

TEST_F(KlinkPolicyTest, MemoryModeExitsOnTimeout) {
  Build(1);
  KlinkPolicy policy;
  Selection out;
  snapshot_.memory_utilization = 0.9;  // stays high throughout
  snapshot_.now = 0;
  policy.SelectQueries(snapshot_, 1, &out);
  ASSERT_TRUE(policy.in_memory_mode());
  snapshot_.now = SecondsToMicros(2);
  out.Clear();
  policy.SelectQueries(snapshot_, 1, &out);
  // The timeout forced an exit (it may instantly re-enter on the *next*
  // cycle, but this evaluation ran in least-slack mode).
  EXPECT_FALSE(policy.in_memory_mode());
}

TEST_F(KlinkPolicyTest, MemoryModePrefersLargestReduction) {
  Build(2);
  KlinkPolicy policy;
  snapshot_.memory_utilization = 0.8;
  // Query 1 has far more reducible volume queued at its window.
  snapshot_.queries[0].op_queued = {0, 10, 0};
  snapshot_.queries[1].op_queued = {0, 5000, 0};
  snapshot_.queries[0].op_selectivity = {1.0, 0.05, 1.0};
  snapshot_.queries[1].op_selectivity = {1.0, 0.05, 1.0};
  Selection out;
  policy.SelectQueries(snapshot_, 1, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].query, 1);
}

TEST_F(KlinkPolicyTest, DisabledMmNeverActivates) {
  Build(1);
  KlinkPolicyConfig config;
  config.enable_memory_management = false;
  KlinkPolicy policy(config);
  snapshot_.memory_utilization = 0.99;
  Selection out;
  policy.SelectQueries(snapshot_, 1, &out);
  EXPECT_FALSE(policy.in_memory_mode());
  EXPECT_EQ(policy.memory_mode_cycles(), 0);
}

TEST_F(KlinkPolicyTest, EvaluationCostAccumulatesAndResets) {
  Build(4);
  KlinkPolicy policy;
  Selection out;
  policy.SelectQueries(snapshot_, 2, &out);
  const double first = policy.EvaluationCostMicros(snapshot_);
  EXPECT_GT(first, 0.0);  // 4 queries evaluated
  // Collected: next read without new evaluations returns zero.
  EXPECT_DOUBLE_EQ(policy.EvaluationCostMicros(snapshot_), 0.0);
}

TEST_F(KlinkPolicyTest, WindowlessQueriesScheduledLast) {
  Build(1);
  // Append a windowless query.
  PipelineBuilder b("stateless");
  b.Source("s", 1.0).Map("m", 1.0).Sink("out", 1.0);
  queries_.push_back(b.Build(1));
  QueryInfo info;
  CollectQueryInfo(*queries_.back(), &info);
  info.whole.queued_events = 100;
  snapshot_.queries.push_back(std::move(info));

  KlinkPolicy policy;
  Selection out;
  policy.SelectQueries(snapshot_, 2, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].query, 0);  // windowed first
  EXPECT_EQ(out[1].query, 1);  // windowless still runs when slots remain
}

// A query that leaves the engine by a drained DetachQuery releases its
// stream estimators; a live one keeps its own.
TEST(KlinkPolicyEngineTest, DepartedQueriesReleaseTheirEstimators) {
  EngineConfig config;
  config.num_cores = 2;
  Engine engine(config, std::make_unique<KlinkPolicy>());
  std::vector<QueryId> ids;
  for (int q = 0; q < 3; ++q) {
    PipelineBuilder b("count");
    b.Source("src", 5.0)
        .TumblingAggregate("w", 10.0, SecondsToMicros(1),
                           AggregationKind::kCount)
        .Sink("out", 2.0);
    SourceSpec spec;
    spec.events_per_second = 400.0;
    spec.key_cardinality = 10;
    spec.watermark_period = MillisToMicros(250);
    spec.watermark_lag = MillisToMicros(50);
    ids.push_back(engine.AddQuery(
        b.Build(q),
        std::make_unique<SyntheticFeed>(
            std::vector<SourceSpec>{spec},
            std::make_unique<ConstantDelay>(MillisToMicros(10)),
            /*seed=*/10 + q, 0)));
  }
  engine.RunFor(SecondsToMicros(3));
  const auto& policy = dynamic_cast<const KlinkPolicy&>(engine.policy());
  // Operator 1 is the window; its one input stream is stream 0.
  for (const QueryId id : ids) {
    ASSERT_NE(policy.EstimatorFor(id, 1, 0), nullptr) << id;
  }

  engine.DetachQuery(ids[0]);
  engine.DetachQuery(ids[1]);
  for (int i = 0; i < 100 && (engine.IsActive(ids[0]) ||
                              engine.IsActive(ids[1]));
       ++i) {
    engine.RunFor(MillisToMicros(120));
  }
  ASSERT_FALSE(engine.IsActive(ids[0]));
  ASSERT_FALSE(engine.IsActive(ids[1]));
  engine.RunFor(MillisToMicros(240));  // cycles past the retirement
  EXPECT_EQ(policy.EstimatorFor(ids[0], 1, 0), nullptr);
  EXPECT_EQ(policy.EstimatorFor(ids[1], 1, 0), nullptr);
  EXPECT_NE(policy.EstimatorFor(ids[2], 1, 0), nullptr);
}

}  // namespace
}  // namespace klink
