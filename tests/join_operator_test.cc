#include "src/operators/join_operator.h"

#include <gtest/gtest.h>

#include "src/window/window_assigner.h"

namespace klink {
namespace {

std::unique_ptr<WindowJoinOperator> MakeJoin(int inputs,
                                             DurationMicros size = 1000) {
  return std::make_unique<WindowJoinOperator>(
      "join", 1.0, MakeTumblingWindow(size), inputs);
}

TEST(JoinOperatorTest, BlockedUntilAllStreamsSweep) {
  auto op = MakeJoin(2);
  VectorEmitter out;
  op->Process(MakeDataEvent(100, 100, 1, 2.0, 64, /*stream=*/0), 0, out);
  op->Process(MakeDataEvent(200, 200, 1, 3.0, 64, /*stream=*/1), 0, out);
  // One stream sweeping does not unblock the window (Sec. 3.3).
  op->Process(MakeWatermark(1500, 1510, /*stream=*/0), 0, out);
  EXPECT_TRUE(out.events.empty());
  // The second stream's watermark advances the minimum and unblocks.
  op->Process(MakeWatermark(1500, 1520, /*stream=*/1), 0, out);
  ASSERT_EQ(out.events.size(), 2u);
  EXPECT_TRUE(out.events[0].is_data());
  EXPECT_DOUBLE_EQ(out.events[0].value, 5.0);  // 2 + 3 joined
  EXPECT_TRUE(out.events[1].swm);
}

TEST(JoinOperatorTest, PaperFigure4Scenario) {
  // Fig. 4: a 1-second window joining two streams. SWMs of timestamp 1
  // unblock window ddl=1; SWM 2 on one stream does not unblock ddl=2 until
  // SWM 3 arrives on the other; ddl=3 waits for SWM 4 from the bottom.
  auto op = MakeJoin(2, SecondsToMicros(1));
  VectorEmitter out;
  auto wm = [](int sec, int stream) {
    return MakeWatermark(SecondsToMicros(sec), SecondsToMicros(sec), stream);
  };
  op->Process(wm(1, 0), 0, out);
  op->Process(wm(1, 1), 0, out);
  ASSERT_EQ(out.events.size(), 1u);  // ddl=1 swept
  EXPECT_TRUE(out.events[0].swm);
  out.events.clear();

  op->Process(wm(2, 1), 0, out);  // bottom advances alone: still blocked
  EXPECT_TRUE(out.events.empty());
  op->Process(wm(3, 0), 0, out);  // top jumps to 3: min=2, unblocks ddl=2 only
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(out.events[0].event_time, SecondsToMicros(2));
  out.events.clear();

  op->Process(wm(4, 1), 0, out);  // bottom to 4: min=3, unblocks ddl=3
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(out.events[0].event_time, SecondsToMicros(3));
}

TEST(JoinOperatorTest, OnlyKeysPresentInAllStreamsJoin) {
  auto op = MakeJoin(3);
  VectorEmitter out;
  // Key 7 appears on all three streams; key 8 only on two.
  for (int s = 0; s < 3; ++s) {
    op->Process(MakeDataEvent(100, 100, 7, 1.0, 64, s), 0, out);
  }
  op->Process(MakeDataEvent(100, 100, 8, 1.0, 64, 0), 0, out);
  op->Process(MakeDataEvent(100, 100, 8, 1.0, 64, 1), 0, out);
  for (int s = 0; s < 3; ++s) {
    op->Process(MakeWatermark(1000, 1000, s), 0, out);
  }
  int data = 0;
  for (const Event& e : out.events) {
    if (e.is_data()) {
      ++data;
      EXPECT_EQ(e.key, 7u);
      EXPECT_DOUBLE_EQ(e.value, 3.0);
    }
  }
  EXPECT_EQ(data, 1);
  EXPECT_EQ(op->emitted_joins(), 1);
}

TEST(JoinOperatorTest, PerStreamSweepsTrackedIndependently) {
  auto op = MakeJoin(2);
  VectorEmitter out;
  op->Process(MakeDataEvent(100, 150, 1, 1.0, 64, 0), 0, out);
  op->Process(MakeWatermark(1200, 1230, /*stream=*/0), 0, out);
  // Stream 0 swept its deadline even though the join stays blocked.
  const SwmTracker& tracker = *op->swm_tracker();
  EXPECT_EQ(tracker.stream(0).epoch, 1);
  EXPECT_EQ(tracker.stream(0).last_swept_deadline, 1000);
  EXPECT_EQ(tracker.stream(0).last_sweep_ingest, 1230);
  EXPECT_EQ(tracker.stream(1).epoch, 0);
}

TEST(JoinOperatorTest, StateReleasedAfterFiring) {
  auto op = MakeJoin(2);
  VectorEmitter out;
  op->Process(MakeDataEvent(100, 100, 1, 1.0, 64, 0), 0, out);
  op->Process(MakeDataEvent(100, 100, 1, 1.0, 64, 1), 0, out);
  EXPECT_GT(op->StateBytes(), 0);
  op->Process(MakeWatermark(1000, 1000, 0), 0, out);
  op->Process(MakeWatermark(1000, 1000, 1), 0, out);
  EXPECT_EQ(op->StateBytes(), 0);
  EXPECT_EQ(op->open_panes(), 0);
}

TEST(JoinOperatorTest, LateEventsDropped) {
  auto op = MakeJoin(2);
  VectorEmitter out;
  op->Process(MakeWatermark(1500, 1500, 0), 0, out);
  op->Process(MakeWatermark(1500, 1500, 1), 0, out);
  op->Process(MakeDataEvent(900, 1600, 1, 1.0, 64, 0), 0, out);
  EXPECT_EQ(op->dropped_late_events(), 1);
}

TEST(JoinOperatorTest, UpcomingDeadlineFollowsPanesAndWatermarks) {
  auto op = MakeJoin(2);
  EXPECT_EQ(op->UpcomingDeadline(), 1000);
  VectorEmitter out;
  op->Process(MakeDataEvent(2500, 2500, 1, 1.0, 64, 0), 0, out);
  EXPECT_EQ(op->UpcomingDeadline(), 3000);
}

TEST(JoinOperatorTest, RequiresAtLeastTwoInputs) {
  EXPECT_TRUE(MakeJoin(2) != nullptr);
  EXPECT_TRUE(MakeJoin(5) != nullptr);
  // num_inputs == 1 violates a KLINK_CHECK; construction would abort, so we
  // only assert the metadata of valid joins here.
  auto op = MakeJoin(2);
  EXPECT_EQ(op->num_inputs(), 2);
  EXPECT_NE(op->swm_tracker(), nullptr);
}

}  // namespace
}  // namespace klink
