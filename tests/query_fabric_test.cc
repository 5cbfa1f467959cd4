#include "src/runtime/query_fabric.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
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
  /// Swaps the queries of slots 0 and 1: each slot then holds a query
  /// whose id is not its index.
  static void SwapFirstTwoQueries(QueryFabric& f) {
    std::swap(f.slots_.at(0).query, f.slots_.at(1).query);
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

std::unique_ptr<EventFeed> TenEventsPerSecond() {
  SourceSpec spec;
  spec.events_per_second = 10;
  return std::make_unique<SyntheticFeed>(std::vector<SourceSpec>{spec},
                                         std::make_unique<ConstantDelay>(0),
                                         /*seed=*/1, /*start_time=*/0);
}

TEST(QueryFabricTest, AttachAssignsDenseIds) {
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

TEST(QueryFabricTest, DetachedIdsAreNeverReused) {
  QueryFabric fabric;
  const QueryId a = fabric.Attach(CountQuery(0), nullptr, 0);
  fabric.Attach(CountQuery(1), nullptr, 0);
  fabric.Detach(a);
  EXPECT_EQ(fabric.state(a), QueryState::kDetached);
  EXPECT_FALSE(fabric.IsLive(a));

  // The next tenant takes the next attach index, not the retired id, which
  // keeps resolving to the retired query.
  const Query* retired = fabric.Find(a);
  const QueryId c = fabric.Attach(CountQuery(2), nullptr, 0);
  EXPECT_EQ(c, 2);
  EXPECT_TRUE(fabric.IsLive(c));
  EXPECT_EQ(fabric.state(a), QueryState::kDetached);
  EXPECT_EQ(fabric.Find(a), retired);
  EXPECT_EQ(fabric.Find(a)->id(), a);
  EXPECT_EQ(fabric.live_count(), 2);
  EXPECT_EQ(fabric.size(), 3);
  ASSERT_EQ(fabric.live().size(), 2u);
  EXPECT_EQ(fabric.live()[0].id, 1);
  EXPECT_EQ(fabric.live()[1].id, c);
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
  const QueryId b = fabric.Attach(CountQuery(1), TenEventsPerSecond(), 0);

  EXPECT_EQ(fabric.live().size(), 2u);
  ASSERT_EQ(fabric.fed().size(), 1u);  // only b has a feed
  EXPECT_EQ(fabric.fed()[0].id, b);

  fabric.Detach(a);
  EXPECT_EQ(fabric.live().size(), 1u);
  EXPECT_EQ(fabric.live()[0].id, b);
  fabric.AuditConsistency();
}

/// The reference model's view of one id ever attached.
struct ModelQuery {
  const Query* query;
  QueryState state;
  bool fed;     // has a feed: attached with one and not yet detached
  bool queued;  // holds the one element the test enqueued
};

// The table's contract under a seeded random mix of attaches (with and
// without a feed), detaches (with and without queued work, of live and
// retired ids), queue drains and sweeps, checked against a reference model
// after every step.
TEST(QueryFabricTest, RandomChurnMatchesReferenceModel) {
  QueryFabric fabric;
  std::vector<ModelQuery> model;  // indexed by id
  Rng rng(/*seed=*/31);
  int fed_attaches = 0, retired_at_once = 0, retired_by_sweep = 0;

  const auto check = [&] {
    std::vector<QueryId> live, fed;
    for (size_t i = 0; i < model.size(); ++i) {
      const QueryId id = static_cast<QueryId>(i);
      const ModelQuery& m = model[i];
      ASSERT_EQ(fabric.Find(id), m.query) << "id " << id;
      ASSERT_EQ(m.query->id(), id);
      ASSERT_EQ(fabric.state(id), m.state) << "id " << id;
      if (m.state == QueryState::kDetached) continue;
      live.push_back(id);
      if (m.fed) fed.push_back(id);
    }
    std::vector<QueryId> live_view, fed_view;
    for (const QueryFabric::LiveQuery& lq : fabric.live()) {
      live_view.push_back(lq.id);
    }
    for (const QueryFabric::LiveQuery& lq : fabric.fed()) {
      fed_view.push_back(lq.id);
    }
    ASSERT_EQ(live_view, live);
    ASSERT_EQ(fed_view, fed);
    ASSERT_EQ(fabric.live_count(), static_cast<int>(live.size()));
    fabric.AuditConsistency();
  };

  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const int64_t action = rng.NextInt(0, 9);
    if (model.empty() || action < 3) {
      const bool with_feed = rng.NextInt(0, 1) == 1;
      std::unique_ptr<Query> query = CountQuery(0);
      const Query* raw = query.get();
      const QueryId id = fabric.Attach(
          std::move(query), with_feed ? TenEventsPerSecond() : nullptr, 0);
      // Each new id is the previous largest plus one.
      ASSERT_EQ(id, static_cast<QueryId>(model.size()));
      model.push_back({raw, QueryState::kActive, with_feed, false});
      fed_attaches += with_feed ? 1 : 0;
    } else if (action < 7) {
      // Any id ever attached: detaching a retired one is a no-op.
      const QueryId id = static_cast<QueryId>(
          rng.NextInt(0, static_cast<int64_t>(model.size()) - 1));
      ModelQuery& m = model[static_cast<size_t>(id)];
      if (m.state == QueryState::kActive && rng.NextInt(0, 1) == 1) {
        EnqueueOne(*fabric.Find(id));
        m.queued = true;
      }
      fabric.Detach(id);
      if (m.state != QueryState::kDetached) {
        m.fed = false;
        m.state = m.queued ? QueryState::kDraining : QueryState::kDetached;
        retired_at_once += m.queued ? 0 : 1;
      }
    } else if (action < 8) {
      // Execution empties the queues of the oldest draining query.
      for (size_t i = 0; i < model.size(); ++i) {
        if (model[i].state != QueryState::kDraining || !model[i].queued) {
          continue;
        }
        fabric.Find(static_cast<QueryId>(i))->sources()[0]->input(0).Clear();
        model[i].queued = false;
        break;
      }
    } else {
      std::vector<QueryId> expected;
      for (size_t i = 0; i < model.size(); ++i) {
        if (model[i].state == QueryState::kDraining && !model[i].queued) {
          model[i].state = QueryState::kDetached;
          expected.push_back(static_cast<QueryId>(i));
        }
      }
      std::vector<QueryId> retired;
      fabric.SweepDrained(&retired);
      ASSERT_EQ(retired, expected);
      retired_by_sweep += static_cast<int>(retired.size());
    }
    ASSERT_NO_FATAL_FAILURE(check());
  }
  // The seed reaches every path the test names.
  EXPECT_GT(fed_attaches, 0);
  EXPECT_GT(static_cast<int>(model.size()) - fed_attaches, 0);
  EXPECT_GT(retired_at_once, 0);
  EXPECT_GT(retired_by_sweep, 0);
}

using QueryFabricDeathTest = ::testing::Test;

TEST(QueryFabricDeathTest, AuditDetectsCorruptLiveCount) {
  QueryFabric fabric;
  fabric.Attach(CountQuery(0), nullptr, 0);
  QueryFabricTestPeer::CorruptLiveCount(fabric);
  EXPECT_DEATH(fabric.AuditConsistency(), "");
}

TEST(QueryFabricDeathTest, AuditDetectsIdIndexMismatch) {
  QueryFabric fabric;
  fabric.Attach(CountQuery(0), nullptr, 0);
  fabric.Attach(CountQuery(1), nullptr, 0);
  QueryFabricTestPeer::SwapFirstTwoQueries(fabric);
  EXPECT_DEATH(fabric.AuditConsistency(), "");
}

}  // namespace
}  // namespace klink
