#include "src/operators/session_window_operator.h"

#include <gtest/gtest.h>

namespace klink {
namespace {

std::unique_ptr<SessionWindowOperator> MakeSession(
    DurationMicros gap = 1000, AggregationKind kind = AggregationKind::kCount) {
  return std::make_unique<SessionWindowOperator>("sess", 1.0, gap, kind);
}

TEST(SessionWindowTest, FiresAfterGapOfInactivity) {
  auto op = MakeSession();
  VectorEmitter out;
  op->Process(MakeDataEvent(100, 100, 1, 1.0), 0, out);
  op->Process(MakeDataEvent(400, 400, 1, 1.0), 0, out);
  // Session close = 400 + 1000 = 1400; a watermark at 1300 does not fire.
  op->Process(MakeWatermark(1300, 1300), 0, out);
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_FALSE(out.events[0].swm);
  out.events.clear();
  op->Process(MakeWatermark(1400, 1450), 0, out);
  ASSERT_EQ(out.events.size(), 2u);
  EXPECT_TRUE(out.events[0].is_data());
  EXPECT_DOUBLE_EQ(out.events[0].value, 2.0);
  EXPECT_EQ(out.events[0].event_time, 1400);  // close time
  EXPECT_TRUE(out.events[1].swm);
  EXPECT_EQ(op->fired_sessions(), 1);
}

TEST(SessionWindowTest, ActivityExtendsTheDeadline) {
  auto op = MakeSession();
  VectorEmitter out;
  op->Process(MakeDataEvent(100, 100, 1, 1.0), 0, out);
  EXPECT_EQ(op->UpcomingDeadline(), 1100);
  op->Process(MakeDataEvent(900, 900, 1, 1.0), 0, out);
  EXPECT_EQ(op->UpcomingDeadline(), 1900);  // pushed out by activity
  // The old deadline passing no longer fires anything.
  op->Process(MakeWatermark(1100, 1150), 0, out);
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_TRUE(out.events[0].is_watermark());
  EXPECT_FALSE(out.events[0].swm);
  EXPECT_EQ(op->open_sessions(), 1);
}

TEST(SessionWindowTest, SeparateKeysSeparateSessions) {
  auto op = MakeSession(1000, AggregationKind::kSum);
  VectorEmitter out;
  op->Process(MakeDataEvent(100, 100, 1, 10.0), 0, out);
  op->Process(MakeDataEvent(600, 600, 2, 20.0), 0, out);
  op->Process(MakeWatermark(1200, 1250), 0, out);  // closes key 1 only
  ASSERT_EQ(out.events.size(), 2u);
  EXPECT_EQ(out.events[0].key, 1u);
  EXPECT_DOUBLE_EQ(out.events[0].value, 10.0);
  EXPECT_EQ(op->open_sessions(), 1);
  out.events.clear();
  op->Process(MakeWatermark(1600, 1650), 0, out);  // closes key 2
  ASSERT_EQ(out.events.size(), 2u);
  EXPECT_EQ(out.events[0].key, 2u);
}

TEST(SessionWindowTest, SameKeyNewSessionAfterClose) {
  auto op = MakeSession();
  VectorEmitter out;
  op->Process(MakeDataEvent(100, 100, 1, 1.0), 0, out);
  op->Process(MakeWatermark(1100, 1150), 0, out);
  ASSERT_EQ(op->fired_sessions(), 1);
  out.events.clear();
  op->Process(MakeDataEvent(2000, 2000, 1, 1.0), 0, out);
  EXPECT_EQ(op->open_sessions(), 1);
  op->Process(MakeWatermark(3000, 3050), 0, out);
  EXPECT_EQ(op->fired_sessions(), 2);
}

TEST(SessionWindowTest, OutOfOrderEventsWithinSessionMerge) {
  auto op = MakeSession(1000, AggregationKind::kMax);
  VectorEmitter out;
  op->Process(MakeDataEvent(500, 510, 1, 5.0), 0, out);
  op->Process(MakeDataEvent(300, 520, 1, 9.0), 0, out);  // older but in-gap
  EXPECT_EQ(op->merged_sessions(), 1);
  op->Process(MakeWatermark(1500, 1550), 0, out);
  // Close stays at 500 + gap; max covers both events.
  const Event& result = out.events[0];
  EXPECT_DOUBLE_EQ(result.value, 9.0);
  EXPECT_EQ(result.event_time, 1500);
}

TEST(SessionWindowTest, LateEventsDropped) {
  auto op = MakeSession();
  VectorEmitter out;
  op->Process(MakeWatermark(2000, 2050), 0, out);
  op->Process(MakeDataEvent(1500, 2100, 1, 1.0), 0, out);
  EXPECT_EQ(op->dropped_late_events(), 1);
  EXPECT_EQ(op->open_sessions(), 0);
}

TEST(SessionWindowTest, StateBytesTrackOpenSessions) {
  auto op = MakeSession();
  VectorEmitter out;
  EXPECT_EQ(op->StateBytes(), 0);
  op->Process(MakeDataEvent(100, 100, 1, 1.0), 0, out);
  op->Process(MakeDataEvent(100, 100, 2, 1.0), 0, out);
  EXPECT_EQ(op->StateBytes(), 2 * SessionWindowOperator::kBytesPerSession);
  op->Process(MakeWatermark(2000, 2000), 0, out);
  EXPECT_EQ(op->StateBytes(), 0);
}

TEST(SessionWindowTest, TrackerRecordsSweeps) {
  auto op = MakeSession();
  VectorEmitter out;
  op->Process(MakeDataEvent(100, 160, 1, 1.0), 0, out);
  op->Process(MakeWatermark(1200, 1230), 0, out);
  const SwmTracker::StreamStats& s = op->swm_tracker()->stream(0);
  EXPECT_EQ(s.epoch, 1);
  EXPECT_EQ(s.last_swept_deadline, 1100);  // session close time
  EXPECT_EQ(s.last_sweep_ingest, 1230);
  EXPECT_DOUBLE_EQ(s.last_mu, 60.0);
}

TEST(SessionWindowTest, WindowSurfaceForScheduler) {
  auto op = MakeSession(SecondsToMicros(2));
  EXPECT_NE(op->swm_tracker(), nullptr);
  // No sessions yet: deadline is one gap past "now" in watermark terms.
  EXPECT_EQ(op->UpcomingDeadline(), SecondsToMicros(2));
}

}  // namespace
}  // namespace klink
