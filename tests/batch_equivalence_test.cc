// The determinism contract of the batched hot path: for every operator
// type, processing the same element sequence through ProcessBatch must be
// byte-identical to the scalar Process loop — same outputs (every field),
// same counters, same state bytes, same virtual-time consumption. The
// engine relies on this to keep batched results bit-identical to the
// pre-batching drain (see DESIGN.md "Hot path").

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/operators/aggregate_operator.h"
#include "src/operators/count_window_operator.h"
#include "src/operators/filter_operator.h"
#include "src/operators/join_operator.h"
#include "src/operators/map_operator.h"
#include "src/operators/operator.h"
#include "src/operators/reorder_operator.h"
#include "src/operators/session_window_operator.h"
#include "src/window/window_assigner.h"

namespace klink {
namespace {

constexpr TimeMicros kCycleStart = 1000000;

/// A randomized stream mixing data events (ascending event time with
/// jitter), periodic watermarks, and latency markers — enough disorder to
/// exercise run detection, window firing, and late-event drops.
std::vector<Event> MakeSequence(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Event> events;
  TimeMicros t = 0;
  TimeMicros max_t = 0;
  for (int i = 0; i < n; ++i) {
    t += rng.NextInt(0, 2000);
    const int64_t kind = rng.NextInt(0, 19);
    if (kind == 0) {
      events.push_back(MakeWatermark(max_t, t + 500));
    } else if (kind == 1) {
      events.push_back(MakeLatencyMarker(t, t + 500));
    } else {
      const TimeMicros et =
          std::max<TimeMicros>(0, t - rng.NextInt(0, 5000));  // some disorder
      max_t = std::max(max_t, et);
      events.push_back(MakeDataEvent(et, t + rng.NextInt(100, 900),
                                     rng.NextUint64() % 50,
                                     rng.NextDouble() * 10.0,
                                     static_cast<uint32_t>(rng.NextInt(16, 128))));
    }
  }
  return events;
}

void ExpectSameEvents(const std::vector<Event>& a, const std::vector<Event>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("output " + std::to_string(i));
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].stream, b[i].stream);
    EXPECT_EQ(a[i].event_time, b[i].event_time);
    EXPECT_EQ(a[i].ingest_time, b[i].ingest_time);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].value, b[i].value);  // exact: bitwise determinism
    EXPECT_EQ(a[i].payload_bytes, b[i].payload_bytes);
    EXPECT_EQ(a[i].swm, b[i].swm);
  }
}

/// Runs the same sequence through a scalar-driven copy and a batch-driven
/// copy of the operator and asserts full equivalence. Returns how many
/// elements the operator emitted.
size_t CheckEquivalence(std::unique_ptr<Operator> scalar_op,
                        std::unique_ptr<Operator> batch_op,
                        const std::vector<Event>& events,
                        double cost = 1.7) {
  VectorEmitter scalar_out;
  double consumed = 0.0;
  for (const Event& e : events) {
    consumed += cost;
    const TimeMicros now = kCycleStart + static_cast<TimeMicros>(consumed);
    scalar_op->Process(e, now, scalar_out);
  }

  VectorEmitter batch_out;
  BatchClock clock(kCycleStart, 0.0, cost);
  batch_op->ProcessBatch(events.data(), static_cast<int64_t>(events.size()),
                         clock, batch_out);

  EXPECT_EQ(clock.consumed_micros(), consumed);
  ExpectSameEvents(scalar_out.events, batch_out.events);
  EXPECT_EQ(scalar_op->processed_data_count(), batch_op->processed_data_count());
  EXPECT_EQ(scalar_op->emitted_data_count(), batch_op->emitted_data_count());
  EXPECT_EQ(scalar_op->StateBytes(), batch_op->StateBytes());
  EXPECT_EQ(scalar_op->forwarded_watermarks(), batch_op->forwarded_watermarks());
  return scalar_out.events.size();
}

TEST(BatchEquivalenceTest, IdentityMap) {
  const auto events = MakeSequence(1, 3000);
  CheckEquivalence(std::make_unique<MapOperator>("m", 1.0),
                   std::make_unique<MapOperator>("m", 1.0), events);
}

TEST(BatchEquivalenceTest, TransformingMap) {
  const auto events = MakeSequence(2, 3000);
  const auto transform = [](Event& e) {
    e.key = 0;
    e.value *= 2.0;
  };
  CheckEquivalence(std::make_unique<MapOperator>("m", 1.0, transform),
                   std::make_unique<MapOperator>("m", 1.0, transform), events);
}

TEST(BatchEquivalenceTest, Filter) {
  const auto events = MakeSequence(3, 3000);
  const auto keep = FilterOperator::HashPassRate(0.4);
  CheckEquivalence(std::make_unique<FilterOperator>("f", 1.0, keep, 0.4),
                   std::make_unique<FilterOperator>("f", 1.0, keep, 0.4),
                   events);
}

TEST(BatchEquivalenceTest, TumblingAggregate) {
  const auto events = MakeSequence(4, 5000);
  auto make = [] {
    return std::make_unique<WindowAggregateOperator>(
        "agg", 2.0, std::make_unique<TumblingWindowAssigner>(SecondsToMicros(2)),
        AggregationKind::kSum);
  };
  CheckEquivalence(make(), make(), events);
}

TEST(BatchEquivalenceTest, SlidingAggregate) {
  const auto events = MakeSequence(5, 5000);
  auto make = [] {
    return std::make_unique<WindowAggregateOperator>(
        "agg", 2.0,
        std::make_unique<SlidingWindowAssigner>(SecondsToMicros(4),
                                                SecondsToMicros(1)),
        AggregationKind::kAverage);
  };
  CheckEquivalence(make(), make(), events);
}

TEST(BatchEquivalenceTest, WindowJoin) {
  // The join reads each element's input from its `stream` field: spread
  // the sequence over three streams, so panes join keys across all three
  // and the minimum watermark advances only once every stream has one.
  std::vector<Event> events = MakeSequence(11, 6000);
  Rng rng(12);
  for (Event& e : events) e.stream = static_cast<int32_t>(rng.NextInt(0, 2));
  auto make = [] {
    return std::make_unique<WindowJoinOperator>(
        "join", 2.0,
        std::make_unique<TumblingWindowAssigner>(SecondsToMicros(2)),
        /*num_inputs=*/3);
  };
  EXPECT_GT(CheckEquivalence(make(), make(), events), 0u);
}

TEST(BatchEquivalenceTest, CountWindow) {
  const auto events = MakeSequence(6, 4000);
  auto make = [] {
    return std::make_unique<CountWindowOperator>("cw", 1.5, 25,
                                                 AggregationKind::kMax);
  };
  CheckEquivalence(make(), make(), events);
}

TEST(BatchEquivalenceTest, SessionWindow) {
  const auto events = MakeSequence(7, 4000);
  auto make = [] {
    return std::make_unique<SessionWindowOperator>(
        "sw", 1.5, MillisToMicros(800), AggregationKind::kCount);
  };
  CheckEquivalence(make(), make(), events);
}

TEST(BatchEquivalenceTest, Reorder) {
  const auto events = MakeSequence(8, 4000);
  CheckEquivalence(std::make_unique<ReorderOperator>("ro", 0.5),
                   std::make_unique<ReorderOperator>("ro", 0.5), events);
}

TEST(BatchEquivalenceTest, BaseClassFallback) {
  // An operator without an OnDataRun override runs OnData per element via
  // the base class; equivalence is by construction but guards the default.
  class PassThrough final : public Operator {
   public:
    PassThrough() : Operator("pt", 1.0, 1) {}
  };
  const auto events = MakeSequence(10, 2000);
  CheckEquivalence(std::make_unique<PassThrough>(),
                   std::make_unique<PassThrough>(), events);
}

}  // namespace
}  // namespace klink
