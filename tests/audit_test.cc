#include "src/runtime/audit.h"

#include <cstdlib>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/dist/dist_engine.h"
#include "src/event/stream_queue.h"
#include "src/net/delay_model.h"
#include "src/operators/map_operator.h"
#include "src/query/pipeline_builder.h"
#include "src/query/query.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/engine.h"
#include "src/runtime/execution_context.h"
#include "src/sched/rr_policy.h"
#include "src/workloads/workload.h"
#include "tests/support/klink_run_process.h"

namespace klink {

/// Plants accounting corruption for the auditor to find. The incremental
/// counter is skewed while the stored events stay intact, which is exactly
/// the class of silent drift the audit layer exists to catch.
class StreamQueueTestPeer {
 public:
  static void CorruptBytes(StreamQueue& q, int64_t delta) { q.bytes_ += delta; }
  static void CorruptFrontIngest(StreamQueue& q, TimeMicros delta) {
    q.front_ingest_ += delta;
  }
};

namespace {

std::unique_ptr<Query> CountQuery(QueryId id) {
  PipelineBuilder b("count");
  b.Source("src", 5.0)
      .TumblingAggregate("w", 10.0, SecondsToMicros(1),
                         AggregationKind::kCount)
      .Sink("out", 2.0);
  return b.Build(id);
}

std::unique_ptr<EventFeed> SteadyFeed(double rate, uint64_t seed) {
  SourceSpec spec;
  spec.events_per_second = rate;
  spec.key_cardinality = 10;
  spec.watermark_period = MillisToMicros(250);
  spec.watermark_lag = MillisToMicros(50);
  return std::make_unique<SyntheticFeed>(
      std::vector<SourceSpec>{spec},
      std::make_unique<ConstantDelay>(MillisToMicros(10)), seed, 0);
}

TEST(AuditEnvTest, ReadsEnvironment) {
  unsetenv("KLINK_AUDIT");
  EXPECT_FALSE(AuditEnabledFromEnv());
  setenv("KLINK_AUDIT", "0", 1);
  EXPECT_FALSE(AuditEnabledFromEnv());
  setenv("KLINK_AUDIT", "1", 1);
  EXPECT_TRUE(AuditEnabledFromEnv());
  unsetenv("KLINK_AUDIT");
}

TEST(AuditTest, CleanEngineRunPassesUnderAudit) {
  setenv("KLINK_AUDIT", "1", 1);
  EngineConfig config;
  config.num_cores = 2;
  Engine engine(config, std::make_unique<RoundRobinPolicy>());
  engine.AddQuery(CountQuery(0), SteadyFeed(500, 1));
  engine.AddQuery(CountQuery(1), SteadyFeed(700, 2));
  engine.RunFor(SecondsToMicros(5));
  EXPECT_GT(engine.metrics().processed_events(), 1000);
  unsetenv("KLINK_AUDIT");
}

TEST(AuditTest, AuditedRunIsByteIdenticalToUnaudited) {
  auto run = [] {
    EngineConfig config;
    Engine engine(config, std::make_unique<RoundRobinPolicy>());
    engine.AddQuery(CountQuery(0), SteadyFeed(500, 7));
    engine.RunFor(SecondsToMicros(5));
    return std::make_tuple(engine.metrics().processed_events(),
                           engine.AggregateSwmLatency().mean(),
                           engine.query(0).sink().results_received());
  };
  unsetenv("KLINK_AUDIT");
  const auto plain = run();
  setenv("KLINK_AUDIT", "1", 1);
  const auto audited = run();
  unsetenv("KLINK_AUDIT");
  EXPECT_EQ(plain, audited);
}

// DistEngine audits too, and its audit is as side-effect free: a split
// deployment (three nodes, transit between them) reads the same audited.
TEST(AuditTest, AuditedDistEngineRunIsByteIdenticalToUnaudited) {
  auto run = [] {
    DistEngineConfig config;
    config.num_nodes = 3;
    config.placement = PlacementMode::kSplit;
    DistEngine engine(config, [](NodeId) {
      return std::make_unique<RoundRobinPolicy>();
    });
    engine.AddQuery(CountQuery(0), SteadyFeed(500, 7));
    engine.AddQuery(CountQuery(1), SteadyFeed(800, 8));
    engine.RunUntil(SecondsToMicros(5));
    return std::make_tuple(engine.metrics().processed_events(),
                           engine.AggregateSwmLatency().mean(),
                           engine.query(1).sink().results_received());
  };
  unsetenv("KLINK_AUDIT");
  const auto plain = run();
  setenv("KLINK_AUDIT", "1", 1);
  const auto audited = run();
  unsetenv("KLINK_AUDIT");
  EXPECT_EQ(plain, audited);
  EXPECT_GT(std::get<2>(plain), 0);
}

using AuditDeathTest = ::testing::Test;

TEST(AuditDeathTest, DistEngineDetectsCorruptedQueueBytes) {
  EXPECT_DEATH(
      {
        setenv("KLINK_AUDIT", "1", 1);
        DistEngineConfig config;
        config.placement = PlacementMode::kSplit;
        DistEngine engine(config, [](NodeId) {
          return std::make_unique<RoundRobinPolicy>();
        });
        engine.AddQuery(CountQuery(0), SteadyFeed(500, 1));
        engine.RunUntil(SecondsToMicros(1));
        // The next cycle's audit runs after ingest, before any drain, so
        // the engine's own check (audit.cc) must be the one to abort.
        StreamQueueTestPeer::CorruptBytes(engine.query(0).op(0).input(0), 64);
        engine.RunUntil(SecondsToMicros(2));
      },
      "audit\\.cc.*AuditRecomputeBytes");
}

TEST(AuditDeathTest, DetectsCorruptedQueueBytes) {
  EXPECT_DEATH(
      {
        setenv("KLINK_AUDIT", "1", 1);
        EngineConfig config;
        Engine engine(config, std::make_unique<RoundRobinPolicy>());
        engine.AddQuery(CountQuery(0), SteadyFeed(500, 1));
        engine.RunFor(SecondsToMicros(1));
        // Skew the incremental byte counter of a source input queue without
        // touching the stored events: the next cycle's cross-check against
        // full recomputation must abort.
        StreamQueueTestPeer::CorruptBytes(engine.query(0).op(0).input(0), 64);
        engine.RunFor(SecondsToMicros(1));
      },
      "KLINK_CHECK failed");
}

TEST(AuditDeathTest, DetectsStaleFrontIngestTime) {
  EXPECT_DEATH(
      {
        setenv("KLINK_AUDIT", "1", 1);
        std::unique_ptr<Query> query = CountQuery(0);
        StreamQueue& in = query->op(0).input(0);
        in.Push(MakeDataEvent(/*event_time=*/0, /*ingest_time=*/10, 1, 1.0));
        // Skew the cached front time without touching the stored element.
        // A zero budget drains nothing, so no pop rewrites the field before
        // RunRange's drain-end check compares it with the front element.
        StreamQueueTestPeer::CorruptFrontIngest(in, 5);
        ExecutionContext context(/*slot=*/0);
        context.BeginCycle(/*budget_micros=*/0.0, /*cost_multiplier=*/1.0,
                           /*cycle_start=*/0);
        context.RunRange(*query, 0, query->num_operators());
      },
      "OldestIngestTime");
}

TEST(AuditDeathTest, CorruptionIsInvisibleWithoutAudit) {
  // The same planted corruption goes unnoticed when auditing is off —
  // which is why the audit layer exists.
  unsetenv("KLINK_AUDIT");
  EngineConfig config;
  Engine engine(config, std::make_unique<RoundRobinPolicy>());
  engine.AddQuery(CountQuery(0), SteadyFeed(500, 1));
  engine.RunFor(SecondsToMicros(1));
  StreamQueueTestPeer::CorruptBytes(engine.query(0).op(0).input(0), 64);
  engine.RunFor(SecondsToMicros(1));
  EXPECT_GT(engine.metrics().processed_events(), 0);
}

TEST(AuditDeathTest, NonMonotonicBarrierEpochAborts) {
  // The coordinator injects epochs in increasing order and queues are
  // FIFO, so a stale or repeated barrier epoch at any operator means
  // queue corruption; the alignment invariant aborts unconditionally.
  EXPECT_DEATH(
      {
        MapOperator op("m", 1.0);
        NullEmitter out;
        op.Process(MakeCheckpointBarrier(/*epoch=*/2, /*ingest_time=*/0), 0,
                   out);
        op.Process(MakeCheckpointBarrier(/*epoch=*/2, /*ingest_time=*/0), 0,
                   out);  // repeat: epoch must strictly increase
      },
      "KLINK_CHECK failed");
}

TEST(AuditDeathTest, CheckpointHashMismatchFatalUnderAudit) {
  // Build one durable checkpoint, flip a payload byte, then load with
  // KLINK_AUDIT=1: tmp+rename makes torn files impossible, so a hash
  // mismatch in audit runs is writer corruption and must abort rather
  // than silently fall back.
  const std::string dir = MakeTempDir("audit_ckpt");
  {
    unsetenv("KLINK_AUDIT");
    CheckpointConfig cc;
    cc.dir = dir;
    cc.interval = MillisToMicros(500);
    CheckpointCoordinator coordinator(cc);
    EngineConfig config;
    Engine engine(config, std::make_unique<RoundRobinPolicy>());
    engine.AddQuery(CountQuery(0), SteadyFeed(500, 1));
    coordinator.RegisterQuery(&engine.query(0), {}, nullptr);
    engine.SetCheckpointCoordinator(&coordinator);
    engine.RunFor(SecondsToMicros(3));
    coordinator.Flush();
    ASSERT_GE(coordinator.last_durable_epoch(), 1u);
    const std::string file =
        dir + "/epoch_" + std::to_string(coordinator.last_durable_epoch()) +
        ".ckpt";
    std::FILE* f = std::fopen(file.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 24, SEEK_SET), 0);
    uint8_t byte = 0;
    ASSERT_EQ(std::fread(&byte, 1, 1, f), 1u);
    byte ^= 0xFF;
    ASSERT_EQ(std::fseek(f, 24, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&byte, 1, 1, f), 1u);
    std::fclose(f);
  }
  EXPECT_DEATH(
      {
        setenv("KLINK_AUDIT", "1", 1);
        LoadedCheckpoint loaded;
        LoadLatestCheckpoint(dir, &loaded);
      },
      "KLINK_CHECK failed");
  // Without audit the same damage falls back to the previous epoch.
  unsetenv("KLINK_AUDIT");
  LoadedCheckpoint loaded;
  if (LoadLatestCheckpoint(dir, &loaded)) {
    EXPECT_GT(loaded.epoch, 0u);
  }
}

}  // namespace
}  // namespace klink
