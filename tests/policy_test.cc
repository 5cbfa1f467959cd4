#include "src/sched/policy.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/query/pipeline_builder.h"
#include "src/sched/default_policy.h"
#include "src/sched/fcfs_policy.h"
#include "src/sched/hr_policy.h"
#include "src/sched/rr_policy.h"
#include "src/sched/sbox_policy.h"

namespace klink {
namespace {

// Builds a snapshot of n synthetic queries. The Query objects only exist
// to satisfy the policies that dereference info.query (SBox).
class SnapshotFixture : public ::testing::Test {
 protected:
  void Build(int n) {
    queries_.clear();
    snapshot_.queries.clear();
    snapshot_.now = 0;
    for (int i = 0; i < n; ++i) {
      PipelineBuilder b(std::string("q").append(std::to_string(i)));
      b.Source("s", 1.0)
          .TumblingAggregate("w", 1.0, 1000, AggregationKind::kCount)
          .Sink("out", 1.0);
      queries_.push_back(b.Build(i));
      QueryInfo info;
      CollectQueryInfo(*queries_.back(), &info);
      info.whole.queued_events = 10;  // ready by default
      snapshot_.queries.push_back(std::move(info));
    }
  }

  QueryInfo& info(int i) { return snapshot_.queries[static_cast<size_t>(i)]; }

  std::vector<std::unique_ptr<Query>> queries_;
  RuntimeSnapshot snapshot_;
};

using PolicyTest = SnapshotFixture;

TEST_F(PolicyTest, ReadinessFiltersIdleQueries) {
  Build(3);
  info(1).whole.queued_events = 0;
  Selection out;
  RoundRobinPolicy rr;
  rr.SelectQueries(snapshot_, 3, &out);
  ASSERT_EQ(out.size(), 2u);
  const std::vector<QueryId> ids = out.ids();
  EXPECT_EQ(std::count(ids.begin(), ids.end(), 1), 0);
}

TEST_F(PolicyTest, SelectTopRespectsSlots) {
  Build(10);
  Selection out;
  FcfsPolicy fcfs;
  for (int i = 0; i < 10; ++i) info(i).whole.oldest_ingest = 1000 - i;
  fcfs.SelectQueries(snapshot_, 4, &out);
  EXPECT_EQ(out.size(), 4u);
}

TEST_F(PolicyTest, FcfsPicksOldestFirst) {
  Build(4);
  info(0).whole.oldest_ingest = 400;
  info(1).whole.oldest_ingest = 100;
  info(2).whole.oldest_ingest = 300;
  info(3).whole.oldest_ingest = 200;
  Selection out;
  FcfsPolicy fcfs;
  fcfs.SelectQueries(snapshot_, 2, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].query, 1);
  EXPECT_EQ(out[1].query, 3);
}

TEST_F(PolicyTest, RoundRobinRotatesAcrossCycles) {
  Build(6);
  RoundRobinPolicy rr;
  Selection first, second, third;
  rr.SelectQueries(snapshot_, 2, &first);
  rr.SelectQueries(snapshot_, 2, &second);
  rr.SelectQueries(snapshot_, 2, &third);
  EXPECT_EQ(first.ids(), (std::vector<QueryId>{0, 1}));
  EXPECT_EQ(second.ids(), (std::vector<QueryId>{2, 3}));
  EXPECT_EQ(third.ids(), (std::vector<QueryId>{4, 5}));
}

TEST_F(PolicyTest, RoundRobinWrapsAround) {
  Build(3);
  RoundRobinPolicy rr;
  Selection out;
  rr.SelectQueries(snapshot_, 2, &out);
  out.Clear();
  rr.SelectQueries(snapshot_, 2, &out);
  EXPECT_EQ(out.ids(), (std::vector<QueryId>{2, 0}));
}

TEST_F(PolicyTest, HighestRateOrdersByRate) {
  Build(3);
  info(0).output_rate = 0.5;
  info(1).output_rate = 2.0;
  info(2).output_rate = 1.0;
  HighestRatePolicy hr;
  Selection out;
  hr.SelectQueries(snapshot_, 3, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].query, 1);
  EXPECT_EQ(out[1].query, 2);
  EXPECT_EQ(out[2].query, 0);
}

TEST_F(PolicyTest, HighestRateTiesAreShuffled) {
  Build(12);
  for (int i = 0; i < 12; ++i) info(i).output_rate = 1.0;
  HighestRatePolicy hr(/*seed=*/1);
  Selection a, b;
  hr.SelectQueries(snapshot_, 12, &a);
  hr.SelectQueries(snapshot_, 12, &b);
  EXPECT_NE(a.ids(), b.ids());  // ties re-shuffled each evaluation
}

TEST_F(PolicyTest, DefaultIsUniformRandomSubset) {
  Build(12);
  DefaultPolicy d(/*seed=*/9);
  std::vector<int> picks(12, 0);
  for (int round = 0; round < 600; ++round) {
    Selection out;
    d.SelectQueries(snapshot_, 2, &out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_NE(out[0].query, out[1].query);  // distinct
    for (QueryId id : out.ids()) ++picks[static_cast<size_t>(id)];
  }
  // Each query expected 100 picks; tolerate sampling noise.
  for (int i = 0; i < 12; ++i) {
    EXPECT_GT(picks[static_cast<size_t>(i)], 55) << i;
    EXPECT_LT(picks[static_cast<size_t>(i)], 160) << i;
  }
}

TEST_F(PolicyTest, StreamBoxPicksEarliestDeadline) {
  Build(3);
  info(0).upcoming_deadline = 3000;
  info(1).upcoming_deadline = 1000;
  info(2).upcoming_deadline = 2000;
  StreamBoxPolicy sbox;
  Selection out;
  sbox.SelectQueries(snapshot_, 1, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].query, 1);
}

TEST_F(PolicyTest, StreamBoxSticksUntilWatermarkProcessed) {
  Build(3);
  info(0).upcoming_deadline = 3000;
  info(1).upcoming_deadline = 1000;
  info(2).upcoming_deadline = 2000;
  StreamBoxPolicy sbox;
  Selection out;
  sbox.SelectQueries(snapshot_, 1, &out);
  ASSERT_EQ(out[0].query, 1);
  // Even if another deadline becomes earlier, the slot stays pinned while
  // no watermark reached query 1's sink.
  info(2).upcoming_deadline = 1;
  out.Clear();
  sbox.SelectQueries(snapshot_, 1, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].query, 1);
}

TEST_F(PolicyTest, StreamBoxReleasesAfterWatermark) {
  Build(2);
  info(0).upcoming_deadline = 1000;
  info(1).upcoming_deadline = 2000;
  StreamBoxPolicy sbox;
  Selection out;
  sbox.SelectQueries(snapshot_, 1, &out);
  ASSERT_EQ(out[0].query, 0);
  // Push a watermark through query 0's sink: the sticky slot releases.
  VectorEmitter sinkhole;
  queries_[0]->sink().Process(MakeWatermark(1500, 1500), 0, sinkhole);
  info(0).upcoming_deadline = 3000;
  out.Clear();
  sbox.SelectQueries(snapshot_, 1, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].query, 1);
}

TEST_F(PolicyTest, StreamBoxHandlesSparseIdsAfterRemoval) {
  Build(6);
  // Simulate retirements: only ids 3..5 survive, so every surviving id
  // exceeds the snapshot length. Regression test for the dense-id
  // assumption in SBox's taken[] bitmap (previously sized by
  // snapshot.queries.size() and indexed by id).
  snapshot_.queries.erase(snapshot_.queries.begin(),
                          snapshot_.queries.begin() + 3);
  info(0).upcoming_deadline = 2000;  // id 3
  info(1).upcoming_deadline = 1000;  // id 4
  info(2).upcoming_deadline = 3000;  // id 5
  StreamBoxPolicy sbox;
  Selection out;
  sbox.SelectQueries(snapshot_, 2, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].query, 4);  // earliest deadline
  EXPECT_EQ(out[1].query, 3);
  EXPECT_TRUE(out.IsDistinct());
}

TEST_F(PolicyTest, StreamBoxReleasesSlotWhenStickyQueryRemoved) {
  Build(2);
  info(0).upcoming_deadline = 1000;
  info(1).upcoming_deadline = 2000;
  StreamBoxPolicy sbox;
  Selection out;
  sbox.SelectQueries(snapshot_, 1, &out);
  ASSERT_EQ(out[0].query, 0);
  // Query 0 is removed: it vanishes from the snapshot, so the pinned slot
  // must release and fall to the next deadline instead of emitting a
  // stale id.
  snapshot_.queries.erase(snapshot_.queries.begin());
  out.Clear();
  sbox.SelectQueries(snapshot_, 1, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].query, 1);
}

TEST_F(PolicyTest, RoundRobinToleratesRemovalMidRotation) {
  Build(4);
  RoundRobinPolicy rr;
  Selection out;
  rr.SelectQueries(snapshot_, 2, &out);
  EXPECT_EQ(out.ids(), (std::vector<QueryId>{0, 1}));
  // Queries 0 and 2 are removed between cycles. The cursor rebases onto
  // the shrunken snapshot and rotation continues over the survivors
  // without ever emitting a removed id.
  snapshot_.queries.erase(snapshot_.queries.begin() + 2);
  snapshot_.queries.erase(snapshot_.queries.begin());
  out.Clear();
  rr.SelectQueries(snapshot_, 2, &out);
  EXPECT_EQ(out.ids(), (std::vector<QueryId>{1, 3}));
  EXPECT_TRUE(out.IsDistinct());
}

}  // namespace
}  // namespace klink
