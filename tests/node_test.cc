#include "src/runtime/node.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/net/delay_model.h"
#include "src/query/pipeline_builder.h"
#include "src/workloads/workload.h"

namespace klink {
namespace {

/// Selects a fixed list of queries and charges a fixed evaluation cost.
class ScriptedPolicy final : public SchedulingPolicy {
 public:
  ScriptedPolicy(std::vector<QueryId> picks, double cost_micros)
      : picks_(std::move(picks)), cost_micros_(cost_micros) {}

  std::string name() const override { return "scripted"; }
  void SelectQueries(const RuntimeSnapshot& /*snapshot*/, int /*slots*/,
                     Selection* out) override {
    for (const QueryId id : picks_) out->Add(id);
  }
  double EvaluationCostMicros(const RuntimeSnapshot& /*snapshot*/) override {
    return cost_micros_;
  }

 private:
  std::vector<QueryId> picks_;
  double cost_micros_;
};

Node MakeNode(int cores, int64_t memory_bytes, std::vector<QueryId> picks = {},
              double cost_micros = 0.0) {
  return Node(NodeConfig{cores, memory_bytes},
              std::make_unique<ScriptedPolicy>(std::move(picks), cost_micros));
}

/// Fed queries in the order a node's ingest walks them.
class FedQueries {
 public:
  /// Adds a counting query fed at `rate` events/s from virtual time 0,
  /// deployed at `deploy_time`.
  void Add(double rate, TimeMicros deploy_time = 0) {
    const QueryId id = static_cast<QueryId>(queries_.size());
    PipelineBuilder b("count");
    b.Source("src", 5.0)
        .TumblingAggregate("w", 10.0, SecondsToMicros(1),
                           AggregationKind::kCount)
        .Sink("out", 2.0);
    queries_.push_back(b.Build(id));
    queries_.back()->set_deploy_time(deploy_time);
    SourceSpec spec;
    spec.events_per_second = rate;
    feeds_.push_back(std::make_unique<SyntheticFeed>(
        std::vector<SourceSpec>{spec},
        std::make_unique<ConstantDelay>(MillisToMicros(10)), /*seed=*/7 + id,
        0));
    list_.push_back(QueryFabric::LiveQuery{id, queries_.back().get(),
                                           feeds_.back().get()});
  }

  const std::vector<QueryFabric::LiveQuery>& list() const { return list_; }
  int64_t bytes(QueryId id) const {
    return queries_[static_cast<size_t>(id)]->MemoryBytes();
  }

 private:
  std::vector<std::unique_ptr<Query>> queries_;
  std::vector<std::unique_ptr<EventFeed>> feeds_;
  std::vector<QueryFabric::LiveQuery> list_;
};

/// A snapshot of one query holding `memory_bytes`.
RuntimeSnapshot SnapshotHolding(int64_t memory_bytes) {
  RuntimeSnapshot snap;
  QueryInfo& info = snap.queries.emplace_back();
  info.id = 0;
  info.memory_bytes = memory_bytes;
  return snap;
}

TEST(NodeTest, IngestIsFirstComeWithinTheFreeMemory) {
  Node node = MakeNode(2, 64 << 10);
  FedQueries fed;
  fed.Add(20000.0, /*deploy_time=*/SecondsToMicros(5));  // not yet deployed
  fed.Add(20000.0);
  fed.Add(20000.0);
  const int64_t used = 16 << 10;
  const FeedIngest::Totals moved =
      node.Ingest(SecondsToMicros(2), used, fed.list());

  // Every query has a backlog far beyond the 48 KB left free: the first
  // deployed one in list order takes nearly all of it, the next what is
  // left over, and the undeployed one nothing.
  EXPECT_EQ(fed.bytes(0), 0);
  EXPECT_GT(fed.bytes(1), (48 << 10) * 9 / 10);
  EXPECT_LT(fed.bytes(2), fed.bytes(1) / 10);
  EXPECT_EQ(moved.bytes, fed.bytes(1) + fed.bytes(2));
  EXPECT_LE(moved.bytes, (64 << 10) - used);
  EXPECT_GT(moved.data, 0);

  // Nothing is free: no poll at all.
  EXPECT_EQ(node.Ingest(SecondsToMicros(2), 64 << 10, fed.list()).bytes, 0);
}

TEST(NodeTest, BackpressureStopsIngestUntilUsageFalls) {
  Node node = MakeNode(2, 64 << 10);
  FedQueries fed;
  fed.Add(20000.0);
  Selection selected;

  RuntimeSnapshot full = SnapshotHolding(64 << 10);
  node.Schedule(0, MillisToMicros(120), &full, &selected);
  EXPECT_TRUE(full.backpressured);
  EXPECT_DOUBLE_EQ(full.memory_utilization, 1.0);
  // Backpressured: nothing is polled, whatever the caller counts as used.
  EXPECT_EQ(node.Ingest(SecondsToMicros(1), 0, fed.list()).bytes, 0);
  EXPECT_EQ(fed.bytes(0), 0);

  // Usage at 80% of capacity lifts it (MemoryTracker's hysteresis).
  RuntimeSnapshot drained = SnapshotHolding((64 << 10) * 8 / 10);
  node.Schedule(0, MillisToMicros(120), &drained, &selected);
  EXPECT_FALSE(drained.backpressured);
  EXPECT_GT(node.Ingest(SecondsToMicros(1), 0, fed.list()).bytes, 0);
}

TEST(NodeTest, ScheduleGrantsTheCycleNetOfThePolicyCost) {
  Node node = MakeNode(4, 1 << 20, {1, 0}, /*cost_micros=*/4000.0);
  RuntimeSnapshot snap;
  for (QueryId id = 0; id < 2; ++id) {
    QueryInfo& info = snap.queries.emplace_back();
    info.id = id;
    info.memory_bytes = 100 << 10;
  }
  snap.detached = {7};
  Selection selected;
  const Node::Grant grant =
      node.Schedule(SecondsToMicros(3), MillisToMicros(120), &snap, &selected);

  EXPECT_EQ(snap.now, SecondsToMicros(3));
  EXPECT_EQ(node.memory().used_bytes(), 200 << 10);  // the snapshot's sum
  EXPECT_DOUBLE_EQ(snap.memory_utilization, (200.0 * 1024) / (1 << 20));
  EXPECT_EQ(selected.ids(), (std::vector<QueryId>{1, 0}));
  EXPECT_TRUE(snap.detached.empty());  // the policy has seen it
  // r − cost/cores: 120 ms less a quarter of the 4 ms evaluation.
  EXPECT_DOUBLE_EQ(grant.slot_budget_micros, 119000.0);
  EXPECT_DOUBLE_EQ(grant.scheduler_cost_micros, 4000.0);
  EXPECT_DOUBLE_EQ(grant.cost_multiplier, 1.0);  // below 70% of capacity

  // An evaluation that costs more than the cycle leaves no budget.
  Node costly = MakeNode(4, 1 << 20, {0}, /*cost_micros=*/1e9);
  EXPECT_DOUBLE_EQ(
      costly.Schedule(0, MillisToMicros(120), &snap, &selected)
          .slot_budget_micros,
      0.0);
}

using NodeDeathTest = ::testing::Test;

TEST(NodeDeathTest, SelectionMustFitTheCoresWithNoUnitTwice) {
  RuntimeSnapshot snap = SnapshotHolding(0);
  Selection selected;
  Node twice = MakeNode(2, 1 << 20, {0, 0});
  EXPECT_DEATH(twice.Schedule(0, MillisToMicros(120), &snap, &selected),
               "KLINK_CHECK failed.*IsDistinct");
  Node too_many = MakeNode(2, 1 << 20, {0, 1, 2});
  EXPECT_DEATH(too_many.Schedule(0, MillisToMicros(120), &snap, &selected),
               "KLINK_CHECK failed.*<=");
}

}  // namespace
}  // namespace klink
