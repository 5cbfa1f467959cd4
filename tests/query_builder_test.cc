#include "src/query/pipeline_builder.h"

#include <gtest/gtest.h>

#include "src/query/query.h"

namespace klink {
namespace {

std::unique_ptr<Query> SimpleQuery() {
  PipelineBuilder b("simple");
  b.Source("src", 1.0)
      .Filter("f", 1.0, [](const Event&) { return true; }, 1.0)
      .TumblingAggregate("w", 1.0, 1000, AggregationKind::kCount)
      .Sink("out", 1.0);
  return b.Build(0);
}

TEST(PipelineBuilderTest, LinearChainTopology) {
  auto q = SimpleQuery();
  EXPECT_EQ(q->num_operators(), 4);
  EXPECT_EQ(q->sources().size(), 1u);
  EXPECT_EQ(q->sources()[0]->name(), "src");
  EXPECT_EQ(q->sink().name(), "out");
  EXPECT_EQ(q->op(2).name(), "w");
  EXPECT_NE(q->op(2).swm_tracker(), nullptr);  // the window tracks SWMs
  EXPECT_EQ(q->num_lanes(), 0);                // unsharded: scheduled whole
  // Edges point forward along the chain.
  for (int i = 0; i + 1 < q->num_operators(); ++i) {
    EXPECT_EQ(q->edge(i).downstream, i + 1);
  }
  EXPECT_EQ(q->edge(3).downstream, -1);
}

TEST(PipelineBuilderTest, JoinConnectsInputStreams) {
  PipelineBuilder b("join-query");
  auto left = b.Source("left", 1.0).Map("lm", 1.0);
  auto right = b.Source("right", 1.0);
  b.TumblingJoin("join", 2.0, 1000, {left, right})
      .Sink("out", 1.0);
  auto q = b.Build(3);
  EXPECT_EQ(q->id(), 3);
  EXPECT_EQ(q->sources().size(), 2u);
  const Operator& join = q->op(3);
  EXPECT_EQ(join.name(), "join");
  EXPECT_EQ(join.num_inputs(), 2);
  // The left chain's tail feeds join stream 0, the right source stream 1.
  EXPECT_EQ(q->edge(1).downstream_stream, 0);  // lm -> join
  EXPECT_EQ(q->edge(2).downstream_stream, 1);  // right -> join
}

TEST(PipelineBuilderTest, ThreeWayJoin) {
  PipelineBuilder b("lrb-like");
  std::vector<BuilderStream> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(b.Source(std::string("s").append(std::to_string(i)), 1.0));
  }
  b.TumblingJoin("join", 1.0, 1000, inputs)
      .SlidingAggregate("acc", 1.0, 5000, 3000, AggregationKind::kMax)
      .TumblingAggregate("toll", 1.0, 1000, AggregationKind::kSum)
      .Sink("out", 1.0);
  auto q = b.Build(0);
  EXPECT_EQ(q->sources().size(), 3u);
  EXPECT_EQ(q->num_operators(), 7);
  int windows = 0;
  for (int i = 0; i < q->num_operators(); ++i) {
    windows += q->op(i).swm_tracker() != nullptr ? 1 : 0;
  }
  EXPECT_EQ(windows, 3);  // join + acc + toll
}

TEST(QueryTest, QueuedAndMemoryAggregation) {
  auto q = SimpleQuery();
  EXPECT_EQ(q->QueuedEvents(), 0);
  q->op(0).input(0).Push(MakeDataEvent(0, 0, 0, 0.0, 100));
  q->op(1).input(0).Push(MakeDataEvent(0, 0, 0, 0.0, 50));
  EXPECT_EQ(q->QueuedEvents(), 2);
  EXPECT_EQ(q->MemoryBytes(), 150 + 2 * StreamQueue::kPerEventOverhead);
}

TEST(QueryTest, DeployTime) {
  auto q = SimpleQuery();
  EXPECT_EQ(q->deploy_time(), 0);
  q->set_deploy_time(12345);
  EXPECT_EQ(q->deploy_time(), 12345);
}

TEST(PipelineBuilderTest, CustomOperatorViaThen) {
  PipelineBuilder b("custom");
  b.Source("s", 1.0)
      .Then(std::make_unique<MapOperator>("custom-map", 2.0, nullptr))
      .Sink("out", 1.0);
  auto q = b.Build(0);
  EXPECT_EQ(q->op(1).name(), "custom-map");
  EXPECT_DOUBLE_EQ(q->op(1).cost_per_event(), 2.0);
}

}  // namespace
}  // namespace klink
