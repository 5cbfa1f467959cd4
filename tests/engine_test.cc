#include "src/runtime/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/klink/klink_policy.h"
#include "src/net/delay_model.h"
#include "src/query/pipeline_builder.h"
#include "src/sched/rr_policy.h"
#include "src/workloads/workload.h"

namespace klink {
namespace {

std::unique_ptr<Query> CountQuery(QueryId id,
                                  DurationMicros window = SecondsToMicros(1)) {
  PipelineBuilder b("count");
  b.Source("src", 5.0)
      .TumblingAggregate("w", 10.0, window, AggregationKind::kCount)
      .Sink("out", 2.0);
  return b.Build(id);
}

std::unique_ptr<EventFeed> SteadyFeed(double rate, uint64_t seed,
                                      DurationMicros delay = MillisToMicros(10)) {
  SourceSpec spec;
  spec.events_per_second = rate;
  spec.key_cardinality = 10;
  spec.watermark_period = MillisToMicros(250);
  spec.watermark_lag = MillisToMicros(50);
  return std::make_unique<SyntheticFeed>(
      std::vector<SourceSpec>{spec},
      std::make_unique<ConstantDelay>(delay), seed, 0);
}

TEST(EngineTest, EndToEndWindowResults) {
  EngineConfig config;
  config.num_cores = 1;
  Engine engine(config, std::make_unique<RoundRobinPolicy>());
  engine.AddQuery(CountQuery(0), SteadyFeed(500, 1));
  engine.RunFor(SecondsToMicros(10));
  // ~10 one-second windows over 10 keys fired.
  EXPECT_GT(engine.query(0).sink().results_received(), 50);
  EXPECT_GT(engine.AggregateSwmLatency().count(), 5);
  EXPECT_GT(engine.metrics().processed_events(), 4000);
}

TEST(EngineTest, DeterministicAcrossRuns) {
  auto run = [] {
    EngineConfig config;
    Engine engine(config, std::make_unique<RoundRobinPolicy>());
    engine.AddQuery(CountQuery(0), SteadyFeed(500, 7));
    engine.AddQuery(CountQuery(1), SteadyFeed(700, 8));
    engine.RunFor(SecondsToMicros(8));
    return std::make_tuple(engine.metrics().processed_events(),
                           engine.AggregateSwmLatency().mean(),
                           engine.query(0).sink().results_received());
  };
  EXPECT_EQ(run(), run());
}

TEST(EngineTest, LatencyReflectsWatermarkLag) {
  EngineConfig config;
  Engine engine(config, std::make_unique<RoundRobinPolicy>());
  engine.AddQuery(CountQuery(0), SteadyFeed(500, 3));
  engine.RunFor(SecondsToMicros(10));
  const Histogram lat = engine.AggregateSwmLatency();
  // The SWM trails its deadline by the watermark lag (50 ms) + phase
  // (<=250 ms) + delay (10 ms) + scheduling quantization.
  EXPECT_GT(lat.min(), MillisToMicros(50));
  EXPECT_LT(lat.mean(), static_cast<double>(MillisToMicros(800)));
}

TEST(EngineTest, DeployTimeDefersIngestion) {
  EngineConfig config;
  Engine engine(config, std::make_unique<RoundRobinPolicy>());
  SourceSpec spec;
  spec.events_per_second = 1000;
  auto feed = std::make_unique<SyntheticFeed>(
      std::vector<SourceSpec>{spec}, std::make_unique<ConstantDelay>(0),
      /*seed=*/1, /*start_time=*/SecondsToMicros(5));
  engine.AddQuery(CountQuery(0), std::move(feed), SecondsToMicros(5));
  engine.RunFor(SecondsToMicros(3));
  EXPECT_EQ(engine.metrics().ingested_events(), 0);
  engine.RunFor(SecondsToMicros(4));
  EXPECT_GT(engine.metrics().ingested_events(), 1000);
}

TEST(EngineTest, BackpressureBoundsMemory) {
  EngineConfig config;
  config.num_cores = 1;
  config.memory_capacity_bytes = 64 << 10;  // tiny: 64 KB
  Engine engine(config, std::make_unique<RoundRobinPolicy>());
  // Offered load far above one core's capacity.
  PipelineBuilder b("heavy");
  b.Source("src", 200.0)
      .TumblingAggregate("w", 400.0, SecondsToMicros(1),
                         AggregationKind::kCount)
      .Sink("out", 10.0);
  engine.AddQuery(b.Build(0), SteadyFeed(20000, 5));
  engine.RunFor(SecondsToMicros(10));
  // In-SPE memory never exceeds the capacity (bounded ingestion).
  EXPECT_LE(engine.memory().peak_bytes(),
            config.memory_capacity_bytes + (64 << 10));
}

TEST(EngineTest, MemoryPressureInflatesCosts) {
  // The managed-runtime slowdown model: no inflation up to the onset, the
  // full penalty at capacity and beyond.
  MemoryTracker tracker(1000);
  tracker.Update(500);
  EXPECT_EQ(tracker.CostMultiplier(), 1.0);
  tracker.Update(700);
  EXPECT_EQ(tracker.CostMultiplier(), 1.0);
  tracker.Update(1000);
  EXPECT_DOUBLE_EQ(tracker.CostMultiplier(), 1.35);
  tracker.Update(1200);
  EXPECT_DOUBLE_EQ(tracker.CostMultiplier(), 1.35);

  // Identical offered load and work; the run whose memory sits above the
  // pressure onset pays more CPU time per event.
  auto busy_per_event = [](int64_t capacity_bytes) {
    EngineConfig config;
    config.num_cores = 1;
    config.memory_capacity_bytes = capacity_bytes;
    Engine engine(config, std::make_unique<RoundRobinPolicy>());
    engine.AddQuery(CountQuery(0), SteadyFeed(20000, 5));
    engine.RunFor(SecondsToMicros(5));
    return engine.metrics().core_busy_micros() /
           static_cast<double>(engine.metrics().processed_events());
  };
  // Tiny capacity: the overloaded query pins utilization near 1.0.
  EXPECT_GT(busy_per_event(256 << 10), busy_per_event(256 << 20) * 1.15);
}

TEST(EngineTest, MetricsSamplesCollected) {
  EngineConfig config;
  Engine engine(config, std::make_unique<RoundRobinPolicy>());
  engine.AddQuery(CountQuery(0), SteadyFeed(500, 2));
  engine.RunFor(SecondsToMicros(6));
  const auto& samples = engine.metrics().samples();
  ASSERT_GT(samples.size(), 10u);
  for (const ResourceSample& s : samples) {
    EXPECT_GE(s.cpu_utilization, 0.0);
    EXPECT_LE(s.cpu_utilization, 1.0 + 1e-9);
    EXPECT_GE(s.memory_bytes, 0);
  }
}

TEST(EngineTest, MultipleCoresRunDistinctQueries) {
  EngineConfig config;
  config.num_cores = 4;
  Engine engine(config, std::make_unique<RoundRobinPolicy>());
  for (int i = 0; i < 4; ++i) {
    engine.AddQuery(CountQuery(i), SteadyFeed(500, 10 + i));
  }
  engine.RunFor(SecondsToMicros(10));
  for (int i = 0; i < 4; ++i) {
    EXPECT_GT(engine.query(i).sink().results_received(), 0) << i;
  }
}

TEST(EngineTest, SlowdownPositiveUnderLoad) {
  EngineConfig config;
  Engine engine(config, std::make_unique<KlinkPolicy>());
  engine.AddQuery(CountQuery(0), SteadyFeed(500, 4));
  engine.RunFor(SecondsToMicros(10));
  EXPECT_GT(engine.MeanSlowdown(), 1.0);
}

TEST(EngineTest, AggregateMarkerLatencyRecorded) {
  EngineConfig config;
  Engine engine(config, std::make_unique<RoundRobinPolicy>());
  engine.AddQuery(CountQuery(0), SteadyFeed(500, 6));
  engine.RunFor(SecondsToMicros(10));
  // Markers every 200 ms: ~50 markers minus warm-up effects.
  EXPECT_GT(engine.AggregateMarkerLatency().count(), 20);
}

/// Runs `engine` one cycle at a time until `id` retires (at most 20
/// virtual seconds).
void RunUntilRetired(Engine& engine, QueryId id) {
  for (int i = 0; i < 170 && engine.IsActive(id); ++i) {
    engine.RunFor(engine.config().cycle_length);
  }
  ASSERT_FALSE(engine.IsActive(id));
}

TEST(EngineTest, DetachQueryStopsServiceButKeepsStats) {
  EngineConfig config;
  config.num_cores = 2;
  Engine engine(config, std::make_unique<RoundRobinPolicy>());
  engine.AddQuery(CountQuery(0), SteadyFeed(500, 1));
  engine.AddQuery(CountQuery(1), SteadyFeed(500, 2));
  engine.RunFor(SecondsToMicros(6));
  ASSERT_GT(engine.query(0).sink().results_received(), 0);

  engine.DetachQuery(0);
  RunUntilRetired(engine, 0);
  EXPECT_TRUE(engine.IsActive(1));
  EXPECT_EQ(engine.query(0).QueuedEvents(), 0);  // drained before retiring
  const int64_t results_before = engine.query(0).sink().results_received();

  engine.RunFor(SecondsToMicros(6));
  // The retired query made no further progress; its stats remain readable.
  EXPECT_EQ(engine.query(0).sink().results_received(), results_before);
  // The survivor kept running.
  EXPECT_GT(engine.query(1).sink().results_received(), results_before);
}

TEST(EngineTest, RetiredQueryLeavesMemoryAccounting) {
  EngineConfig config;
  config.num_cores = 1;
  Engine engine(config, std::make_unique<RoundRobinPolicy>());
  // Overloaded query builds a backlog.
  PipelineBuilder b("heavy");
  b.Source("src", 50.0)
      .TumblingAggregate("w", 50.0, SecondsToMicros(1),
                         AggregationKind::kCount)
      .Sink("out", 10.0);
  engine.AddQuery(b.Build(0), SteadyFeed(20000, 3));
  engine.RunFor(SecondsToMicros(3));
  ASSERT_GT(engine.memory().used_bytes(), 1 << 20);
  engine.DetachQuery(0);
  RunUntilRetired(engine, 0);
  engine.RunFor(config.cycle_length);  // the next cycle's memory update
  EXPECT_EQ(engine.memory().used_bytes(), 0);
}

/// Records what the engine hands the policy each cycle: the snapshot's
/// query ids in order, and its detached list. Selects nothing.
class RecordingPolicy final : public SchedulingPolicy {
 public:
  std::string name() const override { return "recording"; }
  void SelectQueries(const RuntimeSnapshot& snapshot, int /*slots*/,
                     Selection* /*out*/) override {
    std::vector<QueryId> ids;
    for (const QueryInfo& info : snapshot.queries) ids.push_back(info.id);
    seen_ids.push_back(std::move(ids));
    seen_detached.push_back(snapshot.detached);
  }

  std::vector<std::vector<QueryId>> seen_ids;
  std::vector<std::vector<QueryId>> seen_detached;
};

TEST(EngineTest, SnapshotFollowsLiveSlotOrderAndReportsRetirementsOnce) {
  EngineConfig config;
  auto owned = std::make_unique<RecordingPolicy>();
  const RecordingPolicy* policy = owned.get();
  Engine engine(config, std::move(owned));
  std::vector<std::vector<QueryId>> live_ids;
  const auto run_cycle = [&] {
    engine.RunFor(config.cycle_length);
    std::vector<QueryId> ids;
    for (const QueryFabric::LiveQuery& lq : engine.fabric().live()) {
      ids.push_back(lq.id);
    }
    live_ids.push_back(std::move(ids));
  };

  const QueryId first = engine.AddQuery(CountQuery(0), nullptr);
  engine.AddQuery(CountQuery(1), nullptr);
  engine.AddQuery(CountQuery(2), nullptr);
  run_cycle();
  engine.DetachQuery(first);  // nothing queued: retires at once
  run_cycle();
  const QueryId fourth = engine.AddQuery(CountQuery(3), nullptr);
  EXPECT_EQ(fourth, 3);  // the next attach index; id 0 is not reused
  run_cycle();
  run_cycle();

  ASSERT_EQ(policy->seen_ids.size(), live_ids.size());
  EXPECT_EQ(live_ids.back(), (std::vector<QueryId>{1, 2, fourth}));
  int64_t reported = 0;
  for (size_t c = 0; c < live_ids.size(); ++c) {
    EXPECT_EQ(policy->seen_ids[c], live_ids[c]) << "cycle " << c;
    const std::vector<QueryId>& detached = policy->seen_detached[c];
    reported += std::count(detached.begin(), detached.end(), first);
  }
  EXPECT_EQ(reported, 1);
}

}  // namespace
}  // namespace klink
