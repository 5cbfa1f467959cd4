#include "src/runtime/snapshot.h"

#include <gtest/gtest.h>

#include "src/query/pipeline_builder.h"

namespace klink {
namespace {

std::unique_ptr<Query> BuildQuery() {
  PipelineBuilder b("q");
  b.Source("src", 10.0)
      .Filter("f", 20.0, [](const Event& e) { return e.key % 2 == 0; }, 0.5)
      .TumblingAggregate("w", 30.0, 1000, AggregationKind::kCount)
      .Sink("out", 5.0);
  return b.Build(0);
}

TEST(SnapshotTest, PerOperatorArrays) {
  auto q = BuildQuery();
  QueryInfo info;
  CollectQueryInfo(*q, &info);
  ASSERT_EQ(info.op_cost.size(), 4u);
  EXPECT_DOUBLE_EQ(info.op_cost[0], 10.0);
  EXPECT_DOUBLE_EQ(info.op_cost[2], 30.0);
  EXPECT_DOUBLE_EQ(info.op_selectivity[1], 0.5);  // the hint, unmeasured
  // The remaining end-to-end cost of one element at the window.
  EXPECT_NEAR(info.op_path_cost[2], 30.0 + 0.05 * 5.0, 1e-9);
}

TEST(SnapshotTest, DrainCostUsesSelectivityDiscountedPaths) {
  auto q = BuildQuery();
  // 10 events at the source: each costs 10 (src) + 20 (filter) +
  // 0.5 * (30 (agg) + 0.05 * 5 (sink)) with hint selectivities.
  for (int i = 0; i < 10; ++i) {
    q->op(0).input(0).Push(MakeDataEvent(i, i, 0, 0.0));
  }
  QueryInfo info;
  CollectQueryInfo(*q, &info);
  const double per_event = 10.0 + 20.0 + 0.5 * (30.0 + 0.05 * 5.0);
  EXPECT_NEAR(info.whole.drain_cost_micros, 10.0 * per_event, 1e-9);
  EXPECT_EQ(info.whole.queued_events, 10);
  EXPECT_NEAR(info.op_path_cost[0], per_event, 1e-9);
}

TEST(SnapshotTest, DrainCostCountsMidPipelineQueues) {
  auto q = BuildQuery();
  q->op(2).input(0).Push(MakeDataEvent(0, 0, 0, 0.0));  // at the window
  QueryInfo info;
  CollectQueryInfo(*q, &info);
  EXPECT_NEAR(info.whole.drain_cost_micros, 30.0 + 0.05 * 5.0, 1e-9);
}

TEST(SnapshotTest, OldestIngestAcrossOperators) {
  auto q = BuildQuery();
  QueryInfo info;
  CollectQueryInfo(*q, &info);
  EXPECT_EQ(info.whole.oldest_ingest, kNoTime);
  q->op(1).input(0).Push(MakeDataEvent(0, 500, 0, 0.0));
  q->op(0).input(0).Push(MakeDataEvent(0, 900, 0, 0.0));
  CollectQueryInfo(*q, &info);
  EXPECT_EQ(info.whole.oldest_ingest, 500);
}

TEST(SnapshotTest, StreamProgressExtracted) {
  auto q = BuildQuery();
  VectorEmitter sinkhole;
  q->op(2).Process(MakeDataEvent(100, 150, 2, 1.0), 0, sinkhole);
  q->op(2).Process(MakeWatermark(1000, 1040), 0, sinkhole);
  QueryInfo info;
  CollectQueryInfo(*q, &info);
  ASSERT_EQ(info.streams.size(), 1u);
  const StreamProgress& p = info.streams[0];
  EXPECT_EQ(p.op_index, 2);
  EXPECT_EQ(p.stream, 0);
  EXPECT_EQ(p.epoch, 1);
  EXPECT_EQ(p.last_swept_deadline, 1000);
  EXPECT_EQ(p.last_sweep_ingest, 1040);
  EXPECT_EQ(p.upcoming_deadline, 2000);
}

TEST(SnapshotTest, UpcomingDeadlineIsMinAcrossWindows) {
  PipelineBuilder b("two-windows");
  b.Source("s", 1.0)
      .TumblingAggregate("w1", 1.0, 3000, AggregationKind::kCount)
      .TumblingAggregate("w2", 1.0, 1000, AggregationKind::kCount)
      .Sink("out", 1.0);
  auto q = b.Build(0);
  QueryInfo info;
  CollectQueryInfo(*q, &info);
  // With no watermarks yet, deadlines are the first after time 0.
  EXPECT_EQ(info.upcoming_deadline, 1000);
  ASSERT_EQ(info.streams.size(), 2u);
  EXPECT_EQ(info.streams[0].upcoming_deadline, 3000);
  EXPECT_EQ(info.streams[1].upcoming_deadline, 1000);
}

// An unsharded query is one unit, the whole query; a sharded one is its
// lanes, each covering its own operators and streams.
TEST(SnapshotTest, UnitsAreTheWholeQueryOrTheLanes) {
  auto q = BuildQuery();
  q->op(0).input(0).Push(MakeDataEvent(0, 700, 0, 0.0));
  QueryInfo info;
  CollectQueryInfo(*q, &info);
  EXPECT_TRUE(info.lanes.empty());
  ASSERT_EQ(info.units().size(), 1u);
  EXPECT_EQ(&info.units()[0], &info.whole);
  EXPECT_EQ(info.whole.lane, -1);
  EXPECT_EQ(info.whole.queued_events, 1);
  EXPECT_EQ(info.whole.oldest_ingest, 700);
  EXPECT_EQ(info.whole.streams_begin, 0);
  EXPECT_EQ(info.whole.streams_end, 1);

  PipelineBuilder b("sharded");
  b.Source("src", 10.0)
      .ShardedTumblingAggregate("w", 30.0, 1000, AggregationKind::kCount,
                                ShardSpec{2, 2})
      .Sink("out", 5.0);
  auto sharded = b.Build(0);
  const Query::ShardRegion& region = sharded->shard_region();
  sharded->op(region.shard_begin + 1).input(0).Push(
      MakeDataEvent(0, 300, 0, 0.0));
  CollectQueryInfo(*sharded, &info);
  ASSERT_EQ(info.lanes.size(), 4u);  // prefix, two shards, suffix
  ASSERT_EQ(info.units().size(), 4u);
  EXPECT_EQ(info.units().data(), info.lanes.data());
  EXPECT_EQ(info.whole.queued_events, 1);
  for (int l = 0; l < 4; ++l) {
    SCOPED_TRACE(l);
    const LaneInfo& lane = info.lanes[static_cast<size_t>(l)];
    EXPECT_EQ(lane.lane, l);
    EXPECT_EQ(lane.queued_events, l == 2 ? 1 : 0);
    EXPECT_EQ(lane.oldest_ingest, l == 2 ? 300 : kNoTime);
    // Each shard lane holds its own window's one stream.
    EXPECT_EQ(lane.streams_end - lane.streams_begin,
              l == 1 || l == 2 ? 1 : 0);
  }
  EXPECT_EQ(info.lanes[2].streams_begin, 1);
}

TEST(SnapshotTest, OutputRateUsesDeclaredSelectivities) {
  auto q = BuildQuery();
  QueryInfo info;
  CollectQueryInfo(*q, &info);
  // Product of hints (filter 0.5, agg 0.05) over the total cost; the sink
  // is excluded from the product.
  const double expected = (1.0 * 0.5 * 0.05) / (10.0 + 20.0 + 30.0 + 5.0);
  EXPECT_NEAR(info.output_rate, expected, 1e-12);
}

TEST(SnapshotTest, WindowlessQueryHasNoStreams) {
  PipelineBuilder b("stateless");
  b.Source("s", 1.0).Map("m", 1.0).Sink("out", 1.0);
  auto q = b.Build(0);
  QueryInfo info;
  CollectQueryInfo(*q, &info);
  EXPECT_TRUE(info.streams.empty());
  EXPECT_EQ(info.upcoming_deadline, kNoTime);
}

}  // namespace
}  // namespace klink
