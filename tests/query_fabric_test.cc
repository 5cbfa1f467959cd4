#include "src/runtime/query_fabric.h"

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/types.h"
#include "src/event/event.h"
#include "src/net/delay_model.h"
#include "src/query/pipeline_builder.h"
#include "src/workloads/workload.h"

namespace klink {

/// Corruption injection for the AuditConsistency death tests: plants
/// inconsistencies the public API cannot produce, proving the auditor
/// detects state corruption rather than merely passing on healthy state.
class QueryFabricTestPeer {
 public:
  static void CorruptLiveCount(QueryFabric& f) { ++f.live_count_; }
  static void CorruptGeneration(QueryFabric& f) {
    ++f.slots_.at(0).generation;
  }
};

namespace {

std::unique_ptr<Query> CountQuery(QueryId id) {
  PipelineBuilder b("count");
  b.Source("src", 5.0)
      .TumblingAggregate("w", 10.0, SecondsToMicros(1),
                         AggregationKind::kCount)
      .Sink("out", 2.0);
  return b.Build(id);
}

void EnqueueOne(Query& q) {
  q.sources()[0]->input(0).Push(
      MakeDataEvent(/*event_time=*/1000, /*ingest_time=*/1000, /*key=*/1,
                    /*value=*/1.0));
}

TEST(QueryFabricTest, AttachAssignsDenseGenerationZeroIds) {
  QueryFabric fabric;
  const QueryId a = fabric.Attach(CountQuery(0), nullptr, 0);
  const QueryId b = fabric.Attach(CountQuery(1), nullptr, 0);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(fabric.live_count(), 2);
  EXPECT_EQ(fabric.state(a), QueryState::kActive);
  EXPECT_TRUE(fabric.IsLive(b));
  EXPECT_EQ(fabric.Find(a)->id(), a);
  fabric.AuditConsistency();
}

TEST(QueryFabricTest, SlotReuseBumpsGenerationAndNeverAliases) {
  QueryFabric fabric;
  const QueryId a = fabric.Attach(CountQuery(0), nullptr, 0);
  fabric.Attach(CountQuery(1), nullptr, 0);
  fabric.Detach(a);
  EXPECT_EQ(fabric.state(a), QueryState::kDetached);
  EXPECT_FALSE(fabric.IsLive(a));

  // The freed slot is reused, but the new tenant's id carries the next
  // generation: the retired id keeps resolving to the retired query.
  const QueryId c = fabric.Attach(CountQuery(2), nullptr, 0);
  EXPECT_EQ(QuerySlot(c), QuerySlot(a));
  EXPECT_EQ(QueryGeneration(c), QueryGeneration(a) + 1);
  EXPECT_NE(c, a);
  EXPECT_TRUE(fabric.IsLive(c));
  EXPECT_EQ(fabric.state(a), QueryState::kDetached);
  EXPECT_EQ(fabric.Find(a)->name(), "count");
  EXPECT_EQ(fabric.live_count(), 2);
  EXPECT_EQ(fabric.attached_total(), 3);
  fabric.AuditConsistency();
}

TEST(QueryFabricTest, GracefulDetachDrainsBeforeRetiring) {
  QueryFabric fabric;
  const QueryId a = fabric.Attach(CountQuery(0), nullptr, 0);
  EnqueueOne(*fabric.Find(a));

  fabric.Detach(a);
  EXPECT_EQ(fabric.state(a), QueryState::kDraining);
  EXPECT_TRUE(fabric.IsLive(a));  // still schedulable
  EXPECT_EQ(fabric.draining_count(), 1);

  // Queues still hold work: the sweep must not retire it.
  std::vector<QueryId> retired;
  fabric.SweepDrained(&retired);
  EXPECT_TRUE(retired.empty());

  // Drain the queue (as execution would), then the sweep retires it.
  fabric.Find(a)->sources()[0]->input(0).Clear();
  fabric.SweepDrained(&retired);
  ASSERT_EQ(retired.size(), 1u);
  EXPECT_EQ(retired[0], a);
  EXPECT_EQ(fabric.state(a), QueryState::kDetached);
  EXPECT_EQ(fabric.live_count(), 0);
  EXPECT_EQ(fabric.draining_count(), 0);
  fabric.AuditConsistency();
}

TEST(QueryFabricTest, DrainWithEmptyQueuesRetiresImmediately) {
  QueryFabric fabric;
  const QueryId a = fabric.Attach(CountQuery(0), nullptr, 0);
  fabric.Detach(a);
  EXPECT_EQ(fabric.state(a), QueryState::kDetached);
  EXPECT_EQ(fabric.draining_count(), 0);
}

TEST(QueryFabricTest, LiveAndFedViewsTrackChurn) {
  QueryFabric fabric;
  const QueryId a = fabric.Attach(CountQuery(0), nullptr, 0);
  SourceSpec spec;
  spec.events_per_second = 10;
  auto feed = std::make_unique<SyntheticFeed>(
      std::vector<SourceSpec>{spec}, std::make_unique<ConstantDelay>(0),
      /*seed=*/1, /*start_time=*/0);
  const QueryId b = fabric.Attach(CountQuery(1), std::move(feed), 0);

  EXPECT_EQ(fabric.live().size(), 2u);
  ASSERT_EQ(fabric.fed().size(), 1u);  // only b has a feed
  EXPECT_EQ(fabric.fed()[0].id, b);

  fabric.Detach(a);
  EXPECT_EQ(fabric.live().size(), 1u);
  EXPECT_EQ(fabric.live()[0].id, b);
  fabric.AuditConsistency();
}

using QueryFabricDeathTest = ::testing::Test;

TEST(QueryFabricDeathTest, AuditDetectsCorruptLiveCount) {
  QueryFabric fabric;
  fabric.Attach(CountQuery(0), nullptr, 0);
  QueryFabricTestPeer::CorruptLiveCount(fabric);
  EXPECT_DEATH(fabric.AuditConsistency(), "");
}

TEST(QueryFabricDeathTest, AuditDetectsGenerationMismatch) {
  QueryFabric fabric;
  fabric.Attach(CountQuery(0), nullptr, 0);
  QueryFabricTestPeer::CorruptGeneration(fabric);
  EXPECT_DEATH(fabric.AuditConsistency(), "");
}

}  // namespace
}  // namespace klink
