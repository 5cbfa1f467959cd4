#include "src/operators/aggregate_operator.h"

#include <gtest/gtest.h>

#include <map>

#include "src/window/window_assigner.h"

namespace klink {
namespace {

std::unique_ptr<WindowAggregateOperator> MakeTumblingAgg(
    AggregationKind kind, DurationMicros size = 1000) {
  return std::make_unique<WindowAggregateOperator>(
      "agg", 1.0, MakeTumblingWindow(size), kind);
}

TEST(AggregateOperatorTest, CountsPerKeyPerWindow) {
  auto op = MakeTumblingAgg(AggregationKind::kCount);
  VectorEmitter out;
  op->Process(MakeDataEvent(100, 100, /*key=*/1, 1.0), 0, out);
  op->Process(MakeDataEvent(200, 200, /*key=*/1, 1.0), 0, out);
  op->Process(MakeDataEvent(300, 300, /*key=*/2, 1.0), 0, out);
  EXPECT_TRUE(out.events.empty());  // blocked until the SWM

  op->Process(MakeWatermark(1000, 1050), /*now=*/2000, out);
  ASSERT_EQ(out.events.size(), 3u);  // 2 results + forwarded watermark
  std::map<uint64_t, double> results;
  for (const Event& e : out.events) {
    if (e.is_data()) results[e.key] = e.value;
  }
  EXPECT_DOUBLE_EQ(results[1], 2.0);
  EXPECT_DOUBLE_EQ(results[2], 1.0);
}

TEST(AggregateOperatorTest, ResultsPrecedeSweepingWatermark) {
  auto op = MakeTumblingAgg(AggregationKind::kCount);
  VectorEmitter out;
  op->Process(MakeDataEvent(100, 100, 1, 1.0), 0, out);
  op->Process(MakeWatermark(1000, 1050), 0, out);
  // SWM invariant (ii): outputs first, then the watermark, flagged SWM.
  ASSERT_EQ(out.events.size(), 2u);
  EXPECT_TRUE(out.events[0].is_data());
  EXPECT_TRUE(out.events[1].is_watermark());
  EXPECT_TRUE(out.events[1].swm);
}

TEST(AggregateOperatorTest, NonSweepingWatermarkIsNotSwm) {
  WindowAggregateOperator op("agg", 1.0, MakeTumblingWindow(10000),
                             AggregationKind::kCount);
  VectorEmitter out;
  op.Process(MakeDataEvent(100, 100, 1, 1.0), 0, out);
  op.Process(MakeWatermark(5000, 5050), 0, out);  // before the deadline
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_TRUE(out.events[0].is_watermark());
  EXPECT_FALSE(out.events[0].swm);
  EXPECT_EQ(op.fired_panes(), 0);
}

TEST(AggregateOperatorTest, SumAverageMax) {
  struct Case {
    AggregationKind kind;
    double expected;
  };
  for (const Case c : {Case{AggregationKind::kSum, 9.0},
                       Case{AggregationKind::kAverage, 3.0},
                       Case{AggregationKind::kMax, 4.0}}) {
    auto op = MakeTumblingAgg(c.kind);
    VectorEmitter out;
    for (double v : {2.0, 3.0, 4.0}) {
      op->Process(MakeDataEvent(10, 10, 1, v), 0, out);
    }
    op->Process(MakeWatermark(1000, 1000), 0, out);
    ASSERT_EQ(out.events.size(), 2u);
    EXPECT_DOUBLE_EQ(out.events[0].value, c.expected);
  }
}

TEST(AggregateOperatorTest, LateEventsDropped) {
  auto op = MakeTumblingAgg(AggregationKind::kCount);
  VectorEmitter out;
  op->Process(MakeWatermark(1500, 1550), 0, out);  // sweeps window [0,1000)
  out.events.clear();
  op->Process(MakeDataEvent(900, 1600, 1, 1.0), 0, out);  // late
  EXPECT_EQ(op->dropped_late_events(), 1);
  op->Process(MakeWatermark(2000, 2050), 0, out);
  // Window [1000,2000) fires with no content from the dropped event.
  for (const Event& e : out.events) EXPECT_FALSE(e.is_data());
}

TEST(AggregateOperatorTest, EmptyWindowSweepStillSwm) {
  auto op = MakeTumblingAgg(AggregationKind::kCount);
  VectorEmitter out;
  op->Process(MakeWatermark(1200, 1250), 0, out);  // no data at all
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_TRUE(out.events[0].swm);  // stream progressed past a deadline
  EXPECT_EQ(op->swm_count(), 1);
  EXPECT_EQ(op->fired_panes(), 0);
}

TEST(AggregateOperatorTest, MultipleDeadlinesSweptAtOnce) {
  auto op = MakeTumblingAgg(AggregationKind::kCount);
  VectorEmitter out;
  op->Process(MakeDataEvent(100, 100, 1, 1.0), 0, out);    // window [0,1000)
  op->Process(MakeDataEvent(1100, 1100, 1, 1.0), 0, out);  // window [1000,2000)
  op->Process(MakeWatermark(2500, 2550), 0, out);
  // Both panes fire, in deadline order, then one SWM watermark.
  ASSERT_EQ(out.events.size(), 3u);
  EXPECT_EQ(out.events[0].event_time, 1000);
  EXPECT_EQ(out.events[1].event_time, 2000);
  EXPECT_TRUE(out.events[2].swm);
  EXPECT_EQ(op->fired_panes(), 2);
}

TEST(AggregateOperatorTest, SlidingWindowsOverlappingPanes) {
  WindowAggregateOperator op("agg", 1.0, MakeSlidingWindow(2000, 1000),
                             AggregationKind::kCount);
  VectorEmitter out;
  op.Process(MakeDataEvent(1500, 1500, 1, 1.0), 0, out);  // [0,2000) & [1000,3000)
  op.Process(MakeWatermark(2000, 2050), 0, out);          // sweeps [0,2000)
  ASSERT_EQ(out.events.size(), 2u);
  EXPECT_DOUBLE_EQ(out.events[0].value, 1.0);
  out.events.clear();
  op.Process(MakeWatermark(3000, 3050), 0, out);  // sweeps [1000,3000)
  ASSERT_EQ(out.events.size(), 2u);
  EXPECT_DOUBLE_EQ(out.events[0].value, 1.0);
}

TEST(AggregateOperatorTest, UpcomingDeadlineTracksPanes) {
  auto op = MakeTumblingAgg(AggregationKind::kCount);
  // Next deadline after time 0 with no data.
  EXPECT_EQ(op->UpcomingDeadline(), 1000);
  VectorEmitter out;
  op->Process(MakeDataEvent(2500, 2500, 1, 1.0), 0, out);
  EXPECT_EQ(op->UpcomingDeadline(), 3000);  // earliest open pane
  op->Process(MakeWatermark(3000, 3050), 0, out);
  EXPECT_EQ(op->UpcomingDeadline(), 4000);  // next after the watermark
}

TEST(AggregateOperatorTest, StateBytesGrowAndShrink) {
  auto op = MakeTumblingAgg(AggregationKind::kCount);
  VectorEmitter out;
  EXPECT_EQ(op->StateBytes(), 0);
  op->Process(MakeDataEvent(100, 100, 1, 1.0), 0, out);
  op->Process(MakeDataEvent(200, 200, 2, 1.0), 0, out);
  const int64_t expected = WindowAggregateOperator::kBytesPerPane +
                           2 * WindowAggregateOperator::kBytesPerKeyState;
  EXPECT_EQ(op->StateBytes(), expected);
  op->Process(MakeWatermark(1000, 1000), 0, out);
  EXPECT_EQ(op->StateBytes(), 0);
}

TEST(AggregateOperatorTest, SwmTrackerRecordsDelaysAndSweeps) {
  auto op = MakeTumblingAgg(AggregationKind::kCount);
  VectorEmitter out;
  op->Process(MakeDataEvent(100, 160, 1, 1.0), 0, out);  // delay 60
  op->Process(MakeDataEvent(200, 300, 1, 1.0), 0, out);  // delay 100
  op->Process(MakeWatermark(1000, 1040), 0, out);
  const SwmTracker::StreamStats& s = op->swm_tracker()->stream(0);
  EXPECT_EQ(s.epoch, 1);
  EXPECT_DOUBLE_EQ(s.last_mu, 80.0);
  EXPECT_EQ(s.last_swept_deadline, 1000);
  EXPECT_EQ(s.last_sweep_ingest, 1040);
}

TEST(AggregateOperatorTest, WindowOffsetShiftsDeadlines) {
  WindowAggregateOperator op("agg", 1.0,
                             MakeTumblingWindow(1000, /*offset=*/250),
                             AggregationKind::kCount);
  VectorEmitter out;
  op.Process(MakeDataEvent(100, 100, 1, 1.0), 0, out);  // window [-750,250)
  op.Process(MakeWatermark(250, 260), 0, out);
  ASSERT_EQ(out.events.size(), 2u);
  EXPECT_EQ(out.events[0].event_time, 250);
}

TEST(AggregateOperatorTest, ResultEventTimeIsDeadline) {
  auto op = MakeTumblingAgg(AggregationKind::kCount);
  VectorEmitter out;
  op->Process(MakeDataEvent(100, 100, 1, 1.0), 0, out);
  op->Process(MakeWatermark(1000, 1050), /*now=*/7777, out);
  ASSERT_EQ(out.events.size(), 2u);
  EXPECT_EQ(out.events[0].event_time, 1000);   // window end
  EXPECT_EQ(out.events[0].ingest_time, 7777);  // produced "now"
}

TEST(AggregateOperatorTest, WindowSurfaceForScheduler) {
  auto op = MakeTumblingAgg(AggregationKind::kCount);
  EXPECT_NE(op->swm_tracker(), nullptr);
  EXPECT_EQ(op->assigner().slide(), 1000);
}

}  // namespace
}  // namespace klink
