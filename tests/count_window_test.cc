#include "src/operators/count_window_operator.h"

#include <gtest/gtest.h>

namespace klink {
namespace {

TEST(CountWindowTest, FiresEveryNthEventPerKey) {
  CountWindowOperator op("cw", 1.0, /*size=*/3, AggregationKind::kCount);
  VectorEmitter out;
  for (int i = 0; i < 8; ++i) {
    op.Process(MakeDataEvent(i, i, /*key=*/1, 1.0), i, out);
  }
  // 8 events -> 2 fired windows of 3; 2 events pending.
  ASSERT_EQ(out.events.size(), 2u);
  for (const Event& e : out.events) EXPECT_DOUBLE_EQ(e.value, 3.0);
  EXPECT_EQ(op.fired_windows(), 2);
}

TEST(CountWindowTest, KeysAreIndependent) {
  CountWindowOperator op("cw", 1.0, 2, AggregationKind::kSum);
  VectorEmitter out;
  op.Process(MakeDataEvent(0, 0, 1, 10.0), 0, out);
  op.Process(MakeDataEvent(1, 1, 2, 20.0), 1, out);
  EXPECT_TRUE(out.events.empty());
  op.Process(MakeDataEvent(2, 2, 1, 30.0), 2, out);
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(out.events[0].key, 1u);
  EXPECT_DOUBLE_EQ(out.events[0].value, 40.0);
}

TEST(CountWindowTest, SizeOneIsPerEvent) {
  CountWindowOperator op("cw", 1.0, 1, AggregationKind::kMax);
  VectorEmitter out;
  op.Process(MakeDataEvent(0, 0, 1, 7.0), 0, out);
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_DOUBLE_EQ(out.events[0].value, 7.0);
  EXPECT_EQ(op.StateBytes(), 0);  // nothing pending
}

TEST(CountWindowTest, ResultCarriesDeadlineEventTime) {
  // The count window's deadline is its size-th event (Sec. 2.1): the
  // result is stamped with that event's event-time.
  CountWindowOperator op("cw", 1.0, 2, AggregationKind::kCount);
  VectorEmitter out;
  op.Process(MakeDataEvent(100, 110, 1, 1.0), 0, out);
  op.Process(MakeDataEvent(250, 260, 1, 1.0), 0, out);
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(out.events[0].event_time, 250);
}

TEST(CountWindowTest, WatermarksPassThrough) {
  CountWindowOperator op("cw", 1.0, 5, AggregationKind::kCount);
  VectorEmitter out;
  op.Process(MakeDataEvent(0, 0, 1, 1.0), 0, out);
  op.Process(MakeWatermark(1000, 1000), 0, out);
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_TRUE(out.events[0].is_watermark());
  EXPECT_EQ(op.StateBytes(), CountWindowOperator::kBytesPerKeyState);
}

TEST(CountWindowTest, SelectivityHintIsInverseSize) {
  CountWindowOperator op("cw", 1.0, 4, AggregationKind::kCount);
  EXPECT_DOUBLE_EQ(op.selectivity_hint(), 0.25);
  // No time deadline to block on, so no SWM progress for the scheduler.
  EXPECT_EQ(op.UpcomingDeadline(), kNoTime);
  EXPECT_EQ(op.swm_tracker(), nullptr);
}

}  // namespace
}  // namespace klink
