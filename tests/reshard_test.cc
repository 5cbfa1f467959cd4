// Live re-sharding correctness.
//
// In-process: a query deployed at 2 active shards (max 8) is re-sharded
// to 8 mid-run, under backlog, with barriers flowing — and its fully
// drained results_hash must be byte-identical to runs that never
// re-sharded at all (static 2 shards, static 8 shards, and the unsharded
// reference), on both executors. With allowed lateness and Pareto-delayed
// data, the move carries retained panes and pending refires too.
//
// Subprocess: the crash race. A klink_run --listen server with a timed
// --reshard trigger is SIGKILLed while the re-shard protocol is near the
// durable checkpoint frontier, restarted with --restore and the same
// trigger (re-requesting is idempotent; an adopted in-flight re-shard
// wins), and fed the rest of the run by replaying clients. The final
// results_hash must match an uninterrupted run with the same trigger —
// modeled on tests/recovery_test.cc.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/types.h"
#include "src/net/delay_model.h"
#include "src/net/loadgen.h"
#include "src/operators/aggregate_operator.h"
#include "src/operators/exchange_operator.h"
#include "src/query/pipeline_builder.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/engine.h"
#include "src/runtime/event_feed.h"
#include "src/runtime/reshard.h"
#include "src/sched/fcfs_policy.h"
#include "src/workloads/workload.h"
#include "src/workloads/ysb.h"
#include "tests/support/klink_run_process.h"

namespace klink {
namespace {

// ---------------------------------------------------------------------------
// In-process: re-shard mid-run == never re-sharded, to the byte.

constexpr TimeMicros kFeedCutoff = SecondsToMicros(4);
/// 2 active shards drain ~4.8k/s at this cost; the 6k/s offered rate
/// builds real backlog that the mid-run scale-out to 8 then absorbs.
constexpr double kAggCostMicros = 400.0;

class CutoffFeed final : public EventFeed {
 public:
  explicit CutoffFeed(std::unique_ptr<EventFeed> inner)
      : inner_(std::move(inner)) {}

  void PollUpTo(TimeMicros now, int64_t max_bytes,
                std::vector<FeedElement>* out) override {
    inner_->PollUpTo(std::min(now, kFeedCutoff), max_bytes, out);
  }
  int64_t generated_events() const override {
    return inner_->generated_events();
  }

 private:
  std::unique_ptr<EventFeed> inner_;
};

std::unique_ptr<Query> MakeQuery(int shards, int max_shards,
                                 DurationMicros lateness) {
  PipelineBuilder b("reshard");
  b.SetAllowedLateness(lateness);
  BuilderStream head = b.Source("src", 0.5);
  if (max_shards > 0) {
    head = head.ShardedTumblingAggregate(
        "keyed-count", kAggCostMicros, MillisToMicros(800),
        AggregationKind::kCount, ShardSpec{shards, max_shards});
  } else {
    head = head.TumblingAggregate("keyed-count", kAggCostMicros,
                                  MillisToMicros(800),
                                  AggregationKind::kCount);
  }
  head.Sink("out", 0.5);
  return b.Build(/*id=*/0);
}

/// Delays stay within the 60 ms watermark lag unless `pareto`: then the
/// default Pareto tail delays about one event in seven past it.
std::unique_ptr<EventFeed> MakeFeed(bool pareto) {
  SourceSpec spec;
  spec.events_per_second = 6000.0;
  spec.key_cardinality = 256;
  spec.watermark_period = MillisToMicros(250);
  spec.watermark_lag = MillisToMicros(60);
  std::unique_ptr<DelayModel> delay =
      pareto ? MakeDefaultParetoDelay()
             : std::make_unique<UniformDelay>(0, MillisToMicros(20));
  return std::make_unique<CutoffFeed>(std::make_unique<SyntheticFeed>(
      std::vector<SourceSpec>{spec}, std::move(delay), /*seed=*/9, 0));
}

/// The shard lanes' late-data state right after a re-shard move, summed:
/// the move conserves refire marks, and leaves a retained pane on every
/// shard that received one of its keys.
struct MovedLateState {
  int64_t retained_panes = 0;
  int64_t pending_refires = 0;
};

/// One fully drained run; `reshard_to` > 0 requests that count at t=1.5s.
/// `lateness` > 0 retains fired panes and feeds Pareto-delayed data; then
/// `moved`, when given, receives the state the re-shard moved.
uint64_t RunHash(int shards, int max_shards, int reshard_to,
                 ExecutorKind executor, DurationMicros lateness = 0,
                 MovedLateState* moved = nullptr) {
  const std::string dir = MakeTempDir("reshard");
  CheckpointConfig cc;
  cc.dir = dir;
  cc.interval = MillisToMicros(250);
  CheckpointCoordinator coordinator(cc);

  EngineConfig config;
  config.num_cores = 12;
  config.memory_capacity_bytes = 64ll << 20;
  config.executor = executor;
  Engine engine(config, std::make_unique<FcfsPolicy>());
  const QueryId id = engine.AddQuery(MakeQuery(shards, max_shards, lateness),
                                     MakeFeed(/*pareto=*/lateness > 0));
  coordinator.RegisterQuery(&engine.query(id), {}, nullptr);
  engine.SetCheckpointCoordinator(&coordinator);
  ReshardController resharder(&engine);
  engine.SetReshardController(&resharder);

  engine.RunUntil(MillisToMicros(1500));
  if (reshard_to > 0) {
    EXPECT_TRUE(resharder.RequestReshard(id, reshard_to));
  }
  if (moved != nullptr) {
    // One cycle at a time until the move ran at a cycle end; no operator
    // runs between it and the next cycle.
    while (resharder.completed_reshards() == 0 && engine.now() < kFeedCutoff) {
      engine.RunFor(config.cycle_length);
    }
    EXPECT_EQ(resharder.completed_reshards(), 1);
    const Query& q = engine.query(id);
    for (int i = q.shard_region().shard_begin; i < q.shard_region().shard_end;
         ++i) {
      const auto* shard =
          dynamic_cast<const WindowAggregateOperator*>(&q.op(i));
      EXPECT_NE(shard, nullptr);
      if (shard == nullptr) continue;
      moved->retained_panes += shard->retained_panes();
      moved->pending_refires += shard->PendingRefires();
    }
  }
  engine.RunUntil(kFeedCutoff);
  const TimeMicros deadline = kFeedCutoff + SecondsToMicros(60);
  while (engine.query(id).QueuedEvents() > 0 && engine.now() < deadline) {
    engine.RunFor(SecondsToMicros(1));
  }
  EXPECT_EQ(engine.query(id).QueuedEvents(), 0);

  if (reshard_to > 0) {
    EXPECT_EQ(resharder.completed_reshards(), 1);
    EXPECT_FALSE(resharder.reshard_in_flight(id));
    const Query& q = engine.query(id);
    const auto* partition = dynamic_cast<const PartitionExchangeOperator*>(
        &q.op(q.shard_region().partition_op));
    EXPECT_NE(partition, nullptr);
    if (partition != nullptr) {
      EXPECT_EQ(partition->active_shards(), reshard_to);
    }
  }
  return engine.query(id).sink().results_hash();
}

TEST(ReshardTest, MidRunReshardIsByteIdentical) {
  for (const ExecutorKind executor :
       {ExecutorKind::kSequential, ExecutorKind::kThreads}) {
    SCOPED_TRACE(ExecutorKindName(executor));
    const uint64_t unsharded = RunHash(0, 0, /*reshard_to=*/0, executor);
    const uint64_t static_2of8 = RunHash(2, 8, /*reshard_to=*/0, executor);
    const uint64_t static_8of8 = RunHash(8, 8, /*reshard_to=*/0, executor);
    const uint64_t resharded = RunHash(2, 8, /*reshard_to=*/8, executor);
    EXPECT_EQ(static_2of8, unsharded);
    EXPECT_EQ(static_8of8, unsharded);
    EXPECT_EQ(resharded, unsharded);
  }
}

// Scale-down must hold to the same bar: 8 active shards collapsing onto 2
// merges keyed state rather than splitting it.
TEST(ReshardTest, ScaleDownIsByteIdentical) {
  const uint64_t unsharded =
      RunHash(0, 0, /*reshard_to=*/0, ExecutorKind::kThreads);
  const uint64_t resharded =
      RunHash(8, 8, /*reshard_to=*/2, ExecutorKind::kThreads);
  EXPECT_EQ(resharded, unsharded);
}

// With allowed lateness the move carries each key's retained panes, emitted
// values and pending refire marks: the new owner must retract and correct
// exactly what the old one would have.
TEST(ReshardTest, MidRunReshardMovesLateDataState) {
  // A horizon past the 800 ms window: a fired pane is still retained when
  // the next one fires, so the move always finds retained panes.
  constexpr DurationMicros kLateness = SecondsToMicros(1);
  for (const ExecutorKind executor :
       {ExecutorKind::kSequential, ExecutorKind::kThreads}) {
    SCOPED_TRACE(ExecutorKindName(executor));
    const uint64_t unsharded =
        RunHash(0, 0, /*reshard_to=*/0, executor, kLateness);
    MovedLateState moved;
    const uint64_t resharded =
        RunHash(2, 8, /*reshard_to=*/8, executor, kLateness, &moved);
    EXPECT_GT(moved.retained_panes, 0);
    EXPECT_GT(moved.pending_refires, 0);
    EXPECT_EQ(resharded, unsharded);
  }
}

// ---------------------------------------------------------------------------
// Subprocess: SIGKILL + --restore racing the re-shard (recovery_test.cc
// harness, plus --shards/--max-shards/--reshard).

constexpr uint64_t kSeed = 1;
constexpr int kQueries = 2;
constexpr double kRate = 500.0;
constexpr TimeMicros kDuration = SecondsToMicros(6);
/// The re-shard trigger fires at 2.2s of virtual time — between the
/// durable frontier the clients wait for (>= 2 epochs at 500 ms) and the
/// 3.0s of data delivered before the SIGKILL, so the protocol is armed,
/// in flight, or freshly completed when the crash lands.
constexpr double kReshardAtSeconds = 2.2;
constexpr TimeMicros kPreCrashSafe = MillisToMicros(2500);
constexpr TimeMicros kPreCrashSent = MillisToMicros(3000);

std::unique_ptr<EventFeed> QueryFeed(uint64_t feed_seed) {
  YsbConfig wc;
  wc.events_per_second = kRate;
  wc.watermark_lag = MillisToMicros(50);  // loadgen's --delay=none lag
  return MakeYsbFeed(wc, std::make_unique<ConstantDelay>(0), feed_seed,
                     /*start_time=*/0);
}

/// The server's command line (argv after the program name).
std::vector<std::string> ServerArgs(const std::string& checkpoint_dir,
                                    uint16_t port, bool restore) {
  std::vector<std::string> args = {
      "--listen=" + std::to_string(port),
      "--lockstep",
      "--policy=fcfs",
      "--workload=ysb",
      "--queries=" + std::to_string(kQueries),
      "--rate=" + std::to_string(static_cast<long long>(kRate)),
      "--duration=" + std::to_string(kDuration / 1000000),
      "--cores=4",
      "--memory-mb=64",
      "--seed=" + std::to_string(kSeed),
      "--executor=threads",
      "--shards=2",
      "--max-shards=8",
      "--reshard=4@" + std::to_string(kReshardAtSeconds),
      "--checkpoint-dir=" + checkpoint_dir,
      "--checkpoint-interval-ms=500",
  };
  if (restore) args.push_back("--restore");
  return args;
}

TEST(ReshardRecoveryTest, KillRacingReshardIsByteIdentical) {
  const std::vector<uint64_t> seeds = FeedSeeds(kSeed, kQueries);

  // Uninterrupted baseline with the same timed re-shard.
  std::string baseline_hash;
  int64_t baseline_results = 0;
  {
    const std::string dir = MakeTempDir("reshard");
    ServerProc server =
        SpawnServer(ServerArgs(dir, /*port=*/0, /*restore=*/false));
    ASSERT_GT(server.port, 0);
    std::vector<std::unique_ptr<EventFeed>> feeds;
    std::vector<QueryClients> conns;
    for (int q = 0; q < kQueries; ++q) {
      feeds.push_back(QueryFeed(seeds[static_cast<size_t>(q)]));
    }
    ConnectAll(conns, kQueries, /*sources=*/1, server.port);
    if (::testing::Test::HasFatalFailure()) return;
    SendSlice(feeds, conns, kDuration, /*send_bye=*/true, RetryPolicy{});
    if (::testing::Test::HasFatalFailure()) return;
    const ServerResult r = WaitServer(server);
    ASSERT_EQ(r.exit_code, 0);
    ASSERT_GT(r.results, 0);
    ASSERT_FALSE(r.results_hash.empty());
    // Both tenants re-sharded 2 -> 4.
    EXPECT_EQ(r.reshards_completed, kQueries);
    baseline_hash = r.results_hash;
    baseline_results = r.results;
  }

  // Interrupted run: durable prefix, a tail past the frontier with the
  // re-shard trigger inside it, SIGKILL.
  const std::string dir = MakeTempDir("reshard");
  ServerProc first =
      SpawnServer(ServerArgs(dir, /*port=*/0, /*restore=*/false));
  ASSERT_GT(first.port, 0);
  const uint16_t port = first.port;
  std::vector<std::unique_ptr<EventFeed>> feeds;
  std::vector<QueryClients> conns;
  for (int q = 0; q < kQueries; ++q) {
    feeds.push_back(QueryFeed(seeds[static_cast<size_t>(q)]));
  }
  ConnectAll(conns, kQueries, /*sources=*/1, port);
  if (::testing::Test::HasFatalFailure()) return;
  SendSlice(feeds, conns, kPreCrashSafe, /*send_bye=*/false, RetryPolicy{});
  if (::testing::Test::HasFatalFailure()) return;
  AwaitDurableEpochs(conns, 2);
  if (::testing::Test::HasFatalFailure()) return;
  SendSlice(feeds, conns, kPreCrashSent, /*send_bye=*/false, RetryPolicy{});
  if (::testing::Test::HasFatalFailure()) return;
  KillServer(first);

  // Restore on the same port: the timed trigger re-fires (idempotent when
  // the restored checkpoint already carries the re-shard in flight or
  // completed) and the clients replay their unacked tails.
  ServerProc second = SpawnServer(ServerArgs(dir, port, /*restore=*/true));
  ASSERT_GT(second.port, 0);
  EXPECT_TRUE(second.restored);
  ASSERT_NO_FATAL_FAILURE(ReconnectAll(conns));
  SendSlice(feeds, conns, kDuration, /*send_bye=*/true, TestRetry());
  if (::testing::Test::HasFatalFailure()) return;
  const ServerResult r = WaitServer(second);
  ASSERT_EQ(r.exit_code, 0);

  EXPECT_EQ(r.results, baseline_results);
  EXPECT_EQ(r.results_hash, baseline_hash);
}

}  // namespace
}  // namespace klink
