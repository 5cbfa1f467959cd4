// Failure-injection / rough-conditions tests: the engine must stay sane
// when the watermark contract is violated, when streams go quiet, and
// when load spikes far beyond capacity.

#include <gtest/gtest.h>

#include <memory>

#include "src/klink/klink_policy.h"
#include "src/net/delay_model.h"
#include "src/operators/aggregate_operator.h"
#include "src/query/pipeline_builder.h"
#include "src/runtime/engine.h"
#include "src/workloads/workload.h"

namespace klink {
namespace {

std::unique_ptr<Query> CountQuery(QueryId id) {
  PipelineBuilder b("q");
  b.Source("src", 5.0)
      .TumblingAggregate("w", 10.0, SecondsToMicros(1),
                         AggregationKind::kCount)
      .Sink("out", 1.0);
  return b.Build(id);
}

TEST(RobustnessTest, UnderestimatedWatermarkLagDropsLateEventsButFlows) {
  // The application promises 20 ms of lateness but the network delays up
  // to 100 ms: the OOP policy drops the violators and keeps producing.
  EngineConfig config;
  Engine engine(config, std::make_unique<KlinkPolicy>());
  SourceSpec spec;
  spec.events_per_second = 2000;
  spec.watermark_period = MillisToMicros(200);
  spec.watermark_lag = MillisToMicros(20);  // far below the delay bound
  engine.AddQuery(CountQuery(0),
                  std::make_unique<SyntheticFeed>(
                      std::vector<SourceSpec>{spec},
                      std::make_unique<UniformDelay>(MillisToMicros(5),
                                                     MillisToMicros(100)),
                      /*seed=*/5, 0));
  engine.RunFor(SecondsToMicros(20));
  const auto* window =
      dynamic_cast<const WindowAggregateOperator*>(&engine.query(0).op(1));
  ASSERT_NE(window, nullptr);
  EXPECT_GT(window->dropped_late_events(), 0);  // contract violations dropped
  EXPECT_GT(engine.query(0).sink().results_received(), 0);  // output flows
  EXPECT_GT(engine.AggregateSwmLatency().count(), 10);
}

TEST(RobustnessTest, QuietStreamStillProgressesViaWatermarks) {
  // Watermarks alone (no data) keep sweeping empty windows: the sink sees
  // SWMs even though no results exist (Sec. 2.2: progress without events).
  EngineConfig config;
  Engine engine(config, std::make_unique<KlinkPolicy>());
  SourceSpec spec;
  spec.events_per_second = 0.001;  // one event per ~17 minutes
  spec.watermark_period = MillisToMicros(500);
  engine.AddQuery(CountQuery(0),
                  std::make_unique<SyntheticFeed>(
                      std::vector<SourceSpec>{spec},
                      std::make_unique<ConstantDelay>(MillisToMicros(10)),
                      /*seed=*/6, 0));
  engine.RunFor(SecondsToMicros(15));
  // The generator emits its very first event at t=0; nothing after.
  EXPECT_LE(engine.query(0).sink().results_received(), 1);
  EXPECT_GT(engine.AggregateSwmLatency().count(), 5);  // empty sweeps
}

TEST(RobustnessTest, ExtremeOverloadStaysBoundedInMemory) {
  // 50x overload on one core: latency grows, but memory never exceeds
  // the configured capacity and the engine keeps making progress.
  EngineConfig config;
  config.num_cores = 1;
  config.memory_capacity_bytes = 1 << 20;
  Engine engine(config, std::make_unique<KlinkPolicy>());
  SourceSpec spec;
  spec.events_per_second = 50000;
  engine.AddQuery(CountQuery(0),
                  std::make_unique<SyntheticFeed>(
                      std::vector<SourceSpec>{spec},
                      std::make_unique<ConstantDelay>(0), /*seed=*/7, 0));
  engine.RunFor(SecondsToMicros(10));
  EXPECT_LE(engine.memory().peak_bytes(),
            config.memory_capacity_bytes + (64 << 10));
  EXPECT_GT(engine.metrics().processed_events(), 100000);
}

TEST(RobustnessTest, ZeroCostOperatorsDoNotSpin) {
  // Operators configured with zero cost must not let a cycle's budget
  // loop forever (the engine clamps to a minimal charge).
  EngineConfig config;
  config.num_cores = 1;
  Engine engine(config, std::make_unique<KlinkPolicy>());
  PipelineBuilder b("free");
  b.Source("src", 0.0)
      .Map("m", 0.0)
      .TumblingAggregate("w", 0.0, SecondsToMicros(1), AggregationKind::kCount)
      .Sink("out", 0.0);
  SourceSpec spec;
  spec.events_per_second = 1000;
  engine.AddQuery(b.Build(0),
                  std::make_unique<SyntheticFeed>(
                      std::vector<SourceSpec>{spec},
                      std::make_unique<ConstantDelay>(0), /*seed=*/8, 0));
  engine.RunFor(SecondsToMicros(5));  // must terminate
  EXPECT_GT(engine.query(0).sink().results_received(), 0);
}

TEST(RobustnessTest, ManyTinyQueriesSchedulable) {
  // More queries than could ever fit a cycle's slots: everyone still
  // eventually produces output under Klink.
  EngineConfig config;
  config.num_cores = 2;
  Engine engine(config, std::make_unique<KlinkPolicy>());
  for (int q = 0; q < 50; ++q) {
    SourceSpec spec;
    spec.events_per_second = 50;
    engine.AddQuery(CountQuery(q),
                    std::make_unique<SyntheticFeed>(
                        std::vector<SourceSpec>{spec},
                        std::make_unique<ConstantDelay>(MillisToMicros(5)),
                        /*seed=*/100 + static_cast<uint64_t>(q), 0));
  }
  engine.RunFor(SecondsToMicros(30));
  int starved = 0;
  for (int q = 0; q < 50; ++q) {
    if (engine.query(q).sink().results_received() == 0) ++starved;
  }
  EXPECT_EQ(starved, 0);
}

}  // namespace
}  // namespace klink
