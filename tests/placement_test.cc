#include "src/dist/placement.h"

#include <gtest/gtest.h>

#include "src/query/pipeline_builder.h"

namespace klink {
namespace {

std::unique_ptr<Query> ChainQuery(int maps) {
  PipelineBuilder b("chain");
  BuilderStream s = b.Source("src", 1.0);
  for (int i = 0; i < maps; ++i) {
    s = s.Map(std::string("m").append(std::to_string(i)), 1.0);
  }
  s.Sink("out", 1.0);
  return b.Build(0);
}

TEST(PlacementTest, SingleNodeKeepsEverythingLocal) {
  auto q = ChainQuery(3);
  const auto placement = PlaceOperators(*q, 1);
  for (NodeId n : placement) EXPECT_EQ(n, 0);
  EXPECT_EQ(CountCrossNodeEdges(*q, placement), 0);
}

TEST(PlacementTest, LocalModeNeverSplits) {
  auto q = ChainQuery(4);
  const auto placement =
      PlaceOperators(*q, 4, /*start_node=*/2, PlacementMode::kLocal);
  for (NodeId n : placement) EXPECT_EQ(n, 2);
  EXPECT_EQ(CountCrossNodeEdges(*q, placement), 0);
}

TEST(PlacementTest, SplitSegmentsAreContiguousAndOrdered) {
  auto q = ChainQuery(6);  // 8 operators total
  const auto placement = PlaceOperators(*q, 4, 0, PlacementMode::kSplit);
  ASSERT_EQ(placement.size(), 8u);
  // Node ids never decrease along the chain and all 4 nodes are used.
  for (size_t i = 1; i < placement.size(); ++i) {
    EXPECT_GE(placement[i], placement[i - 1]);
  }
  EXPECT_EQ(placement.front(), 0);
  EXPECT_EQ(placement.back(), 3);
  EXPECT_EQ(CountCrossNodeEdges(*q, placement), 3);
}

TEST(PlacementTest, StartNodeRotatesAssignment) {
  auto q = ChainQuery(2);
  const auto p0 = PlaceOperators(*q, 4, 0, PlacementMode::kSplit);
  const auto p2 = PlaceOperators(*q, 4, 2, PlacementMode::kSplit);
  for (size_t i = 0; i < p0.size(); ++i) {
    EXPECT_EQ((p0[i] + 2) % 4, p2[i]);
  }
}

TEST(PlacementTest, MoreNodesThanOperatorsUsesAtMostOnePerOp) {
  auto q = ChainQuery(0);  // 2 operators
  const auto placement = PlaceOperators(*q, 8, 0, PlacementMode::kSplit);
  ASSERT_EQ(placement.size(), 2u);
  EXPECT_EQ(placement[0], 0);
  EXPECT_EQ(placement[1], 1);
}

}  // namespace
}  // namespace klink
