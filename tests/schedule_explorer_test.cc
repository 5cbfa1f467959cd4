// Schedule-exploring race detection for the engine's concurrent protocols
// (DESIGN.md "Static analysis & schedule exploration").
//
// Each test drives a real protocol — checkpoint barriers, the checkpoint
// writer's durable-then-ack handoff, gateway dedup, live re-sharding,
// crash restore — through seed-driven PCT schedules
// under the ScheduleExplorer, with the repo's strongest oracle: the
// results_hash must be byte-identical to a sequential, unexplored
// reference run, for every seed (plus KLINK_AUDIT invariants on the
// invariance runs). A mutation harness then re-introduces the two
// checkpoint bugs PR 8 fixed and proves the exploration detects both
// from a logged, replayable seed:
//   #1 hold-buffer checkpointing (TestFault::kCheckpointHoldBuffer):
//      restoring a checkpoint that serialized the partition exchange's
//      re-shard hold buffer double-applies the held elements.
//   #2 report-before-drain: fingerprinting results at the fixed feed
//      cutoff without draining hashes an undrained tail.
//
// Seed knobs: KLINK_EXPLORER_SEEDS=<n> runs seeds 1..n (CI smoke uses 64);
// KLINK_EXPLORER_SEED=<s> replays exactly one seed.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/common/fault_injection.h"
#include "src/common/thread_annotations.h"
#include "src/common/types.h"
#include "src/net/delay_model.h"
#include "src/net/ingest_gateway.h"
#include "src/net/ingest_server.h"
#include "src/net/loadgen.h"
#include "src/net/serve_loop.h"
#include "src/net/wire.h"
#include "src/query/pipeline_builder.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/engine.h"
#include "src/runtime/event_feed.h"
#include "src/runtime/reshard.h"
#include "tests/support/klink_run_process.h"
#include "tests/support/schedule_explorer.h"
#include "src/sched/fcfs_policy.h"
#include "src/workloads/workload.h"

namespace klink {
namespace {

// ---------------------------------------------------------------------------
// Harness plumbing.

/// Forces KLINK_AUDIT=1 for a scope: every explored schedule replays under
/// the invariant auditor's cross-checks, not just the hash oracle.
class ScopedAuditOn {
 public:
  ScopedAuditOn() {
    const char* v = std::getenv("KLINK_AUDIT");
    if (v != nullptr) {
      saved_ = v;
      had_value_ = true;
    }
    setenv("KLINK_AUDIT", "1", 1);
  }
  ~ScopedAuditOn() {
    if (had_value_) {
      setenv("KLINK_AUDIT", saved_.c_str(), 1);
    } else {
      unsetenv("KLINK_AUDIT");
    }
  }
  ScopedAuditOn(const ScopedAuditOn&) = delete;
  ScopedAuditOn& operator=(const ScopedAuditOn&) = delete;

 private:
  bool had_value_ = false;
  std::string saved_;
};

/// Masks KLINK_AUDIT for the mutation runs: a re-injected bug may trip
/// auditor aborts before the hash oracle gets to speak; the harness wants
/// the divergence itself, observed from a replayable seed.
class ScopedAuditOff {
 public:
  ScopedAuditOff() {
    const char* v = std::getenv("KLINK_AUDIT");
    if (v != nullptr) {
      saved_ = v;
      had_value_ = true;
    }
    unsetenv("KLINK_AUDIT");
  }
  ~ScopedAuditOff() {
    if (had_value_) setenv("KLINK_AUDIT", saved_.c_str(), 1);
  }
  ScopedAuditOff(const ScopedAuditOff&) = delete;
  ScopedAuditOff& operator=(const ScopedAuditOff&) = delete;

 private:
  bool had_value_ = false;
  std::string saved_;
};

std::vector<uint64_t> ExplorerSeeds() {
  if (const char* forced = std::getenv("KLINK_EXPLORER_SEED")) {
    return {std::strtoull(forced, nullptr, 10)};
  }
  int n = 5;
  if (const char* v = std::getenv("KLINK_EXPLORER_SEEDS")) n = std::atoi(v);
  KLINK_CHECK_GE(n, 1);
  std::vector<uint64_t> seeds;
  for (int i = 1; i <= n; ++i) seeds.push_back(static_cast<uint64_t>(i));
  return seeds;
}

ScheduleExplorerConfig ExplorerCfg(uint64_t seed) {
  ScheduleExplorerConfig cfg;
  cfg.seed = seed;
  cfg.priority_change_points = 3;
  cfg.max_steps_hint = 4096;
  return cfg;
}

/// Caps the inner feed at `cutoff` so every run sees the identical finite
/// input (reshard_test's CutoffFeed, with the cutoff as a parameter).
class CutoffFeed final : public EventFeed {
 public:
  CutoffFeed(std::unique_ptr<EventFeed> inner, TimeMicros cutoff)
      : inner_(std::move(inner)), cutoff_(cutoff) {}

  void PollUpTo(TimeMicros now, int64_t max_bytes,
                std::vector<FeedElement>* out) override {
    inner_->PollUpTo(std::min(now, cutoff_), max_bytes, out);
  }
  int64_t generated_events() const override {
    return inner_->generated_events();
  }

 private:
  std::unique_ptr<EventFeed> inner_;
  TimeMicros cutoff_;
};

/// Restore-side feed: swallows every element with ingest_time <= `through`
/// before delivering. Those elements' effects live in the restored
/// checkpoint (the barrier of epoch E is injected after the cycle at
/// checkpoint_time ingested them), so the restored engine must see only
/// the post-checkpoint suffix.
class DiscardThroughFeed final : public EventFeed {
 public:
  DiscardThroughFeed(std::unique_ptr<EventFeed> inner, TimeMicros through)
      : inner_(std::move(inner)), through_(through) {}

  void PollUpTo(TimeMicros now, int64_t max_bytes,
                std::vector<FeedElement>* out) override {
    if (!discarded_) {
      std::vector<FeedElement> consumed;
      inner_->PollUpTo(through_, std::numeric_limits<int64_t>::max(),
                       &consumed);
      discarded_ = true;
    }
    inner_->PollUpTo(now, max_bytes, out);
  }
  int64_t generated_events() const override {
    return inner_->generated_events();
  }

 private:
  std::unique_ptr<EventFeed> inner_;
  TimeMicros through_;
  bool discarded_ = false;
};

// ---------------------------------------------------------------------------
// Protocol driver: checkpointed + re-sharded run (reshard_test's harness,
// parameterized by seed-perturbed protocol timing).

// Six slots: the executor's workers (min(6, CPUs) - 1), the main thread
// and the checkpoint writer are the explorer participants.
constexpr int kCores = 6;
constexpr TimeMicros kCutoff = MillisToMicros(3600);
constexpr double kAggCostMicros = 400.0;  // 2 shards backlog at 6k/s

std::unique_ptr<Query> MakeShardQuery() {
  PipelineBuilder b("explored");
  b.Source("src", 0.5)
      .ShardedTumblingAggregate("keyed-count", kAggCostMicros,
                                MillisToMicros(800), AggregationKind::kCount,
                                ShardSpec{2, 8})
      .Sink("out", 0.5);
  return b.Build(/*id=*/0);
}

std::unique_ptr<EventFeed> MakeShardFeed() {
  SourceSpec spec;
  spec.events_per_second = 6000.0;
  spec.key_cardinality = 256;
  spec.watermark_period = MillisToMicros(250);
  spec.watermark_lag = MillisToMicros(60);
  return std::make_unique<CutoffFeed>(
      std::make_unique<SyntheticFeed>(
          std::vector<SourceSpec>{spec},
          std::make_unique<UniformDelay>(0, MillisToMicros(20)), /*seed=*/9,
          0),
      kCutoff);
}

EngineConfig ShardEngineCfg(ExecutorKind executor) {
  EngineConfig config;
  config.num_cores = kCores;
  config.memory_capacity_bytes = 64ll << 20;
  config.executor = executor;
  return config;
}

struct RunOutcome {
  uint64_t hash = 0;
  uint64_t steps = 0;  // explorer decisions (0 for unexplored runs)
};

struct ProtocolTiming {
  DurationMicros ckpt_interval = MillisToMicros(250);
  TimeMicros reshard_at = MillisToMicros(1500);
  int reshard_to = 4;
};

/// Seed-perturbed protocol timing. Thread schedules alone cannot move the
/// virtual-time-deterministic engine's results, so each seed also shifts
/// when the protocols run; the oracle is that NONE of it — schedules or
/// protocol timing — may change the results hash.
ProtocolTiming PerturbedTiming(uint64_t seed) {
  ProtocolTiming t;
  t.ckpt_interval = MillisToMicros(200 + 50 * static_cast<int64_t>(seed % 4));
  t.reshard_at = MillisToMicros(1260 + 120 * static_cast<int64_t>(seed % 5));
  return t;
}

/// One fully drained checkpointed+resharded run. `explorer_seed` 0 runs
/// without an explorer. With `drain` false the hash is taken at the fixed
/// cutoff with work still queued — mutation #2, the report-before-drain
/// bug the drain loop below exists to prevent.
RunOutcome RunCheckpointReshard(uint64_t explorer_seed, ExecutorKind executor,
                                const ProtocolTiming& timing,
                                bool drain = true) {
  std::optional<ScheduleExplorer> explorer;
  if (explorer_seed != 0) explorer.emplace(ExplorerCfg(explorer_seed));

  const std::string dir = MakeTempDir("explorer");
  CheckpointConfig cc;
  cc.dir = dir;
  cc.interval = timing.ckpt_interval;
  CheckpointCoordinator coordinator(cc);

  const EngineConfig config = ShardEngineCfg(executor);
  Engine engine(config, std::make_unique<FcfsPolicy>());
  const QueryId id = engine.AddQuery(MakeShardQuery(), MakeShardFeed());
  if (explorer && executor == ExecutorKind::kThreads) {
    explorer->AwaitParticipants(2 + engine.executor().num_workers());
  }
  coordinator.RegisterQuery(&engine.query(id), {}, nullptr);
  engine.SetCheckpointCoordinator(&coordinator);
  ReshardController resharder(&engine);
  engine.SetReshardController(&resharder);

  engine.RunUntil(timing.reshard_at);
  EXPECT_TRUE(resharder.RequestReshard(id, timing.reshard_to));
  engine.RunUntil(kCutoff);
  RunOutcome out;
  if (drain) {
    // Stop injecting barriers before draining: at short intervals the
    // coordinator keeps a (result-neutral) barrier in flight at every
    // cycle boundary, so QueuedEvents() would never read 0.
    engine.SetCheckpointCoordinator(nullptr);
    const TimeMicros deadline = kCutoff + SecondsToMicros(60);
    while (engine.query(id).QueuedEvents() > 0 && engine.now() < deadline) {
      engine.RunFor(SecondsToMicros(1));
    }
    EXPECT_EQ(engine.query(id).QueuedEvents(), 0);
    EXPECT_EQ(resharder.completed_reshards(), 1);
  }
  out.hash = engine.query(id).sink().results_hash();
  if (explorer) out.steps = explorer->steps();
  return out;
}

// ---------------------------------------------------------------------------
// Protocol driver: crash + restore racing the re-shard (in-process).

/// Phase 1 runs the checkpointed re-shard until the protocol completes,
/// continues a seed-chosen slice past completion (so the newest durable
/// epoch lands anywhere around the pause window), then "crashes" by
/// abandoning the engine. Phase 2 restores the newest durable checkpoint
/// into a fresh engine — fresh thread pool, fresh explorer participants —
/// and finishes the run. The returned hash must equal the uninterrupted
/// reference for every seed; with TestFault::kCheckpointHoldBuffer armed,
/// seeds whose crash lands a mid-pause epoch at the durable frontier
/// replay the checkpointed hold buffer on top of downstream snapshots
/// that already contain it, and the hash diverges.
uint64_t RunKillRestore(uint64_t explorer_seed, const ProtocolTiming& timing) {
  std::optional<ScheduleExplorer> explorer;
  if (explorer_seed != 0) explorer.emplace(ExplorerCfg(explorer_seed));

  const std::string dir = MakeTempDir("explorer");
  const EngineConfig config = ShardEngineCfg(ExecutorKind::kThreads);

  // Phase 1: run, re-shard, crash shortly after the protocol completes.
  {
    CheckpointConfig cc;
    cc.dir = dir;
    cc.interval = timing.ckpt_interval;
    CheckpointCoordinator coordinator(cc);
    Engine engine(config, std::make_unique<FcfsPolicy>());
    const QueryId id = engine.AddQuery(MakeShardQuery(), MakeShardFeed());
    if (explorer) {
      explorer->AwaitParticipants(2 + engine.executor().num_workers());
    }
    coordinator.RegisterQuery(&engine.query(id), {}, nullptr);
    engine.SetCheckpointCoordinator(&coordinator);
    ReshardController resharder(&engine);
    engine.SetReshardController(&resharder);

    engine.RunUntil(timing.reshard_at);
    EXPECT_TRUE(resharder.RequestReshard(id, timing.reshard_to));
    const TimeMicros limit = kCutoff - MillisToMicros(600);
    while (resharder.completed_reshards() == 0 && engine.now() < limit) {
      engine.RunFor(MillisToMicros(60));
    }
    EXPECT_EQ(resharder.completed_reshards(), 1);
    // Kill at the checkpoint durable frontier's advance past its value at
    // re-shard completion. The first epochs finalized after completion are
    // the ones whose exchange alignment fell inside the re-shard pause —
    // exactly the epochs whose restore exercises the hold buffer's
    // checkpoint semantics (mutation #1's target). The writer thread is an
    // explorer participant, so when the frontier advances is a function of
    // the seed and the kill point replays with it; seeds split between the
    // first and second advance to also cover restores from ordinary
    // post-pause epochs.
    const uint64_t frontier = coordinator.last_durable_epoch();
    const uint64_t advances = 1 + explorer_seed % 2;
    while (coordinator.last_durable_epoch() < frontier + advances &&
           engine.now() < limit) {
      engine.RunFor(MillisToMicros(60));
    }
    EXPECT_GE(coordinator.last_durable_epoch(), frontier + advances);
    // Crash: the engine is abandoned here with every epoch not yet handed
    // to the writer; the coordinator's destructor still persists the ones
    // it was handed, as writes that finish before a kill would.
  }

  LoadedCheckpoint loaded;
  KLINK_CHECK(LoadLatestCheckpoint(dir, &loaded));
  KLINK_CHECK_EQ(loaded.queries.size(), 1u);

  // Phase 2: restore into a fresh engine and finish the run.
  CheckpointConfig cc;
  cc.dir = dir;
  cc.interval = timing.ckpt_interval;
  CheckpointCoordinator coordinator(cc);
  Engine engine(config, std::make_unique<FcfsPolicy>());
  const QueryId id = engine.AddQuery(
      MakeShardQuery(), std::make_unique<DiscardThroughFeed>(
                            MakeShardFeed(), loaded.checkpoint_time));
  if (explorer) {
    explorer->AwaitParticipants(2 + engine.executor().num_workers());
  }
  RestoreQueryState(loaded.queries[0], &engine.query(id));
  engine.RestoreClock(loaded.checkpoint_time);
  coordinator.RegisterQuery(&engine.query(id), {}, nullptr);
  coordinator.ResumeFrom(loaded.epoch, loaded.checkpoint_time);
  engine.SetCheckpointCoordinator(&coordinator);
  ReshardController resharder(&engine);
  engine.SetReshardController(&resharder);
  if (loaded.checkpoint_time < timing.reshard_at) {
    // The crash preceded the trigger; re-fire it like klink_run --restore
    // re-fires a timed trigger (idempotent against adopted re-shards).
    engine.RunUntil(timing.reshard_at);
    resharder.RequestReshard(id, timing.reshard_to);
  }
  engine.RunUntil(kCutoff);
  engine.SetCheckpointCoordinator(nullptr);  // stop barriers, then drain
  const TimeMicros deadline = kCutoff + SecondsToMicros(60);
  while (engine.query(id).QueuedEvents() > 0 && engine.now() < deadline) {
    engine.RunFor(SecondsToMicros(1));
  }
  EXPECT_EQ(engine.query(id).QueuedEvents(), 0);
  return engine.query(id).sink().results_hash();
}

// ---------------------------------------------------------------------------
// Protocol driver: exactly-once gateway dedup under replay overlap.

constexpr TimeMicros kGatewayCutoff = MillisToMicros(2400);

std::unique_ptr<Query> MakeGatewayQuery() {
  PipelineBuilder b("gw");
  b.Source("src", 0.5)
      .TumblingAggregate("count", 40.0, MillisToMicros(500),
                         AggregationKind::kCount)
      .Sink("out", 0.5);
  return b.Build(/*id=*/0);
}

/// Pre-generates the deterministic event sequence the "client" will send.
std::vector<EventFeed::FeedElement> GatewayEvents() {
  SourceSpec spec;
  spec.events_per_second = 2000.0;
  spec.key_cardinality = 32;
  spec.watermark_period = MillisToMicros(250);
  spec.watermark_lag = MillisToMicros(40);
  SyntheticFeed feed(std::vector<SourceSpec>{spec},
                     std::make_unique<ConstantDelay>(MillisToMicros(10)),
                     /*seed=*/13, 0);
  std::vector<EventFeed::FeedElement> events;
  feed.PollUpTo(kGatewayCutoff, std::numeric_limits<int64_t>::max(), &events);
  return events;
}

constexpr TimeMicros kGatewayChunk = MillisToMicros(120);

/// Delivers every event due by `t`, from index `*next` on (seq = index +
/// 1), to gateway stream 0, then runs the engine to `t`.
void DeliverDueAndRun(const std::vector<EventFeed::FeedElement>& events,
                      IngestGateway& gateway, Engine& engine, size_t* next,
                      TimeMicros t) {
  IngestGateway::Stream& stream = gateway.GetStream(0);
  while (*next < events.size() && events[*next].event.ingest_time <= t) {
    const Event& e = events[*next].event;
    EXPECT_EQ(stream.AcceptSeq(static_cast<uint64_t>(*next) + 1),
              IngestGateway::SeqDecision::kAccept);
    stream.Deliver(e, static_cast<int64_t>(EncodedEventSize(e)));
    ++*next;
  }
  gateway.Flush(0);
  engine.RunUntil(t);
}

/// Feeds the gateway in ingestion-time chunks, optionally re-delivering a
/// replay window of already-sent frames before each chunk (a reconnecting
/// client replaying its unacked tail). AcceptSeq must drop every replayed
/// frame, so the hash cannot depend on the overlap pattern — and under
/// the explorer, not on the schedule either.
uint64_t RunGatewayDedup(uint64_t explorer_seed, ExecutorKind executor,
                         bool with_replays) {
  std::optional<ScheduleExplorer> explorer;
  if (explorer_seed != 0) explorer.emplace(ExplorerCfg(explorer_seed));

  IngestGateway gateway;
  gateway.RegisterStream(0, IngestStreamConfig{});

  EngineConfig config;
  config.num_cores = 2;
  config.executor = executor;
  Engine engine(config, std::make_unique<FcfsPolicy>());
  const QueryId id = engine.AddQuery(
      MakeGatewayQuery(),
      std::make_unique<NetworkFeed>(&gateway, std::vector<uint32_t>{0}));
  if (explorer && executor == ExecutorKind::kThreads) {
    explorer->AwaitParticipants(1 + engine.executor().num_workers());
  }

  const std::vector<EventFeed::FeedElement> events = GatewayEvents();
  size_t next = 0;  // next undelivered event; seq = index + 1
  int chunk = 0;
  for (TimeMicros t = kGatewayChunk; t <= kGatewayCutoff;
       t += kGatewayChunk, ++chunk) {
    if (with_replays && next > 0 &&
        (static_cast<uint64_t>(chunk) + explorer_seed) % 3 == 0) {
      // Reconnect replay: re-send a tail window of already-acked frames.
      const size_t window = std::min<size_t>(next, 7);
      for (size_t i = next - window; i < next; ++i) {
        // Duplicate: the frame is dropped before Deliver.
        EXPECT_EQ(gateway.GetStream(0).AcceptSeq(static_cast<uint64_t>(i) + 1),
                  IngestGateway::SeqDecision::kDuplicate)
            << "seq " << i + 1;
      }
    }
    DeliverDueAndRun(events, gateway, engine, &next, t);
  }
  EXPECT_EQ(next, events.size());
  gateway.MarkEndOfStream(0);
  const TimeMicros deadline = kGatewayCutoff + SecondsToMicros(30);
  while (engine.query(id).QueuedEvents() > 0 && engine.now() < deadline) {
    engine.RunFor(MillisToMicros(500));
  }
  EXPECT_EQ(engine.query(id).QueuedEvents(), 0);
  if (with_replays) {
    EXPECT_GT(gateway.duplicate_events(0), 0);
  }
  return engine.query(id).sink().results_hash();
}

// ---------------------------------------------------------------------------
// Protocol: checkpoint acks over the gateway, crash, restore.

/// The gateway harness with barrier checkpoints. The coordinator's writer
/// thread persists epochs and the engine thread acks them, so every ack
/// must name an epoch already durable on disk. Once `2 + seed % 3` epochs
/// are acked the run "crashes"; the restore loads the newest complete
/// checkpoint, replays what a client that trimmed through its acks still
/// retains, and finishes the run. Returns the final results hash.
uint64_t RunAckedKillRestore(uint64_t explorer_seed) {
  std::optional<ScheduleExplorer> explorer;
  if (explorer_seed != 0) explorer.emplace(ExplorerCfg(explorer_seed));

  const std::string dir = MakeTempDir("explorer");
  const std::vector<EventFeed::FeedElement> events = GatewayEvents();
  EngineConfig config;
  config.num_cores = 2;
  config.executor = ExecutorKind::kThreads;
  CheckpointConfig cc;
  cc.dir = dir;
  cc.interval = MillisToMicros(200 + 50 * static_cast<int64_t>(
                                             explorer_seed % 4));
  const uint64_t kill_after = 2 + explorer_seed % 3;

  uint64_t acked_epoch = 0;
  uint64_t acked_seq = 0;
  {
    CheckpointCoordinator coordinator(cc);
    IngestGateway gateway;
    gateway.RegisterStream(0, IngestStreamConfig{});
    Engine engine(config, std::make_unique<FcfsPolicy>());
    const QueryId id = engine.AddQuery(
        MakeGatewayQuery(),
        std::make_unique<NetworkFeed>(&gateway, std::vector<uint32_t>{0}));
    if (explorer) {
      explorer->AwaitParticipants(2 + engine.executor().num_workers());
    }
    coordinator.RegisterQuery(&engine.query(id), {0}, &gateway);
    coordinator.SetAckCallback(
        [&](uint32_t, uint64_t epoch, uint64_t durable_seq) {
          LoadedCheckpoint on_disk;
          EXPECT_TRUE(LoadLatestCheckpoint(dir, &on_disk));
          EXPECT_GE(on_disk.epoch, epoch) << "ack before durable";
          EXPECT_GT(epoch, acked_epoch);
          acked_epoch = epoch;
          acked_seq = durable_seq;
        });
    engine.SetCheckpointCoordinator(&coordinator);
    size_t next = 0;
    for (TimeMicros t = kGatewayChunk;
         t <= kGatewayCutoff && acked_epoch < kill_after;
         t += kGatewayChunk) {
      DeliverDueAndRun(events, gateway, engine, &next, t);
    }
    EXPECT_GE(acked_epoch, kill_after);
    // Crash: no Flush; the destructor persists handed epochs, acks none.
  }

  LoadedCheckpoint loaded;
  KLINK_CHECK(LoadLatestCheckpoint(dir, &loaded));
  KLINK_CHECK_EQ(loaded.queries.size(), 1u);
  KLINK_CHECK_EQ(loaded.queries[0].cursors.size(), 1u);
  EXPECT_GE(loaded.epoch, acked_epoch);
  const uint64_t cursor = loaded.queries[0].cursors[0].second;
  // The client trimmed through acked_seq; it can replay only past it.
  EXPECT_GE(cursor, acked_seq);

  CheckpointCoordinator coordinator(cc);
  IngestGateway gateway;
  gateway.RegisterStream(0, IngestStreamConfig{});
  gateway.RestoreCursor(0, cursor);
  Engine engine(config, std::make_unique<FcfsPolicy>());
  const QueryId id = engine.AddQuery(
      MakeGatewayQuery(),
      std::make_unique<NetworkFeed>(&gateway, std::vector<uint32_t>{0}));
  if (explorer) {
    explorer->AwaitParticipants(2 + engine.executor().num_workers());
  }
  RestoreQueryState(loaded.queries[0], &engine.query(id));
  engine.RestoreClock(loaded.checkpoint_time);
  coordinator.RegisterQuery(&engine.query(id), {0}, &gateway);
  coordinator.ResumeFrom(loaded.epoch, loaded.checkpoint_time);
  engine.SetCheckpointCoordinator(&coordinator);
  size_t next = static_cast<size_t>(cursor);
  for (TimeMicros t = kGatewayChunk; t <= kGatewayCutoff; t += kGatewayChunk) {
    if (t > loaded.checkpoint_time) {
      DeliverDueAndRun(events, gateway, engine, &next, t);
    }
  }
  EXPECT_EQ(next, events.size());
  gateway.MarkEndOfStream(0);
  engine.SetCheckpointCoordinator(nullptr);  // stop barriers, then drain
  const TimeMicros deadline = kGatewayCutoff + SecondsToMicros(30);
  while (engine.query(id).QueuedEvents() > 0 && engine.now() < deadline) {
    engine.RunFor(MillisToMicros(500));
  }
  EXPECT_EQ(engine.query(id).QueuedEvents(), 0);
  return engine.query(id).sink().results_hash();
}

// ---------------------------------------------------------------------------
// Protocol: the TCP serve loop's hand-off between its I/O thread and the
// engine thread.

/// What a served run acked, in the order the engine thread acked it.
struct ServedRun {
  uint64_t hash = 0;
  std::vector<QueuedAck> acks;
};

/// Three tenants served over loopback TCP by the lockstep ServeIngest loop
/// with barrier checkpoints: tenants 0 and 1 are registered up front,
/// tenant 2 attaches through the dynamic-attach hand-off, and virtual time
/// holds until it has. Client threads (not explorer participants) blast
/// each tenant's feed and say goodbye. Returns the tenants' combined
/// results hash and every ack the coordinator fired.
ServedRun RunServedCheckpoints(uint64_t explorer_seed) {
  std::optional<ScheduleExplorer> explorer;
  if (explorer_seed != 0) explorer.emplace(ExplorerCfg(explorer_seed));

  CheckpointConfig cc;
  cc.dir = MakeTempDir("explorer_serve");
  cc.interval = MillisToMicros(300);
  CheckpointCoordinator coordinator(cc);
  IngestGateway gateway;
  EngineConfig config;
  config.num_cores = 2;
  config.executor = ExecutorKind::kThreads;
  Engine engine(config, std::make_unique<FcfsPolicy>());
  if (explorer) {
    explorer->AwaitParticipants(2 + engine.executor().num_workers());
  }
  std::vector<QueryId> ids;
  const auto attach = [&](int q) {
    const uint32_t stream = MakeStreamId(q, 0);
    gateway.RegisterStream(stream, IngestStreamConfig{});
    ids.push_back(engine.AddQuery(
        MakeGatewayQuery(),
        std::make_unique<NetworkFeed>(&gateway, std::vector<uint32_t>{stream}),
        engine.now()));
    coordinator.RegisterQuery(&engine.query(ids.back()), {stream}, &gateway);
  };
  attach(0);
  attach(1);
  engine.SetCheckpointCoordinator(&coordinator);

  IngestServerConfig sc;
  sc.on_unknown_stream = [&](uint32_t stream) {
    if (stream != MakeStreamId(2, 0) || ids.size() != 2) return false;
    attach(2);
    return true;
  };
  IngestServer server(sc, &gateway);
  KLINK_CHECK(server.Start().ok());
  ServedRun run;
  coordinator.SetAckCallback(
      [&](uint32_t stream, uint64_t epoch, uint64_t durable_seq) {
        run.acks.push_back(QueuedAck{stream, epoch, durable_seq});
        server.SendCheckpointAck(stream, epoch, durable_seq);
      });

  const uint16_t port = server.port();
  std::vector<std::thread> clients;
  for (int q = 0; q < 3; ++q) {
    clients.emplace_back([port, q]() {
      SourceSpec spec;
      spec.events_per_second = 2000.0;
      spec.key_cardinality = 32;
      SyntheticFeed feed(std::vector<SourceSpec>{spec},
                         std::make_unique<ConstantDelay>(MillisToMicros(10)),
                         /*seed=*/13 + static_cast<uint64_t>(q), 0);
      LoadgenConnection conn;
      EXPECT_TRUE(conn.Connect("127.0.0.1", port, MakeStreamId(q, 0)).ok());
      ReplayOptions opts;
      opts.until = kGatewayCutoff;
      const Status replayed = ReplayFeed(feed, {&conn}, opts);
      EXPECT_TRUE(replayed.ok()) << replayed.ToString();
    });
  }
  ServeIngest(&engine, &server, &gateway, &coordinator, kGatewayCutoff,
              /*lockstep=*/true, [&]() { return ids.size() < 3; });
  for (std::thread& t : clients) t.join();

  uint64_t h = 1469598103934665603ull;
  for (const QueryId id : ids) {
    EXPECT_EQ(engine.query(id).QueuedEvents(), 0);
    h = (h ^ engine.query(id).sink().results_hash()) * 1099511628211ull;
  }
  run.hash = h;
  return run;
}

// ---------------------------------------------------------------------------
// Invariance: every explored schedule reproduces the sequential reference.

TEST(ScheduleExplorerTest, CheckpointReshardHashInvariantAcrossSchedules) {
  ScopedAuditOn audit;
  const uint64_t reference =
      RunCheckpointReshard(0, ExecutorKind::kSequential, ProtocolTiming{})
          .hash;
  for (const uint64_t seed : ExplorerSeeds()) {
    SCOPED_TRACE("explorer seed " + std::to_string(seed));
    const RunOutcome out = RunCheckpointReshard(
        seed, ExecutorKind::kThreads, PerturbedTiming(seed));
    EXPECT_EQ(out.hash, reference);
    EXPECT_GT(out.steps, 0u);
  }
}

TEST(ScheduleExplorerTest, SameSeedReplaysTheIdenticalSchedule) {
  const uint64_t seed = ExplorerSeeds().front();
  const ProtocolTiming timing = PerturbedTiming(seed);
  const RunOutcome a =
      RunCheckpointReshard(seed, ExecutorKind::kThreads, timing);
  const RunOutcome b =
      RunCheckpointReshard(seed, ExecutorKind::kThreads, timing);
  EXPECT_EQ(a.hash, b.hash);
  // Equal decision counts: the seed replayed the same interleaving, not
  // merely an equivalent-result one.
  EXPECT_EQ(a.steps, b.steps);
}

TEST(ScheduleExplorerTest, GatewayDedupHashInvariantAcrossSchedules) {
  ScopedAuditOn audit;
  const uint64_t reference =
      RunGatewayDedup(0, ExecutorKind::kSequential, /*with_replays=*/false);
  for (const uint64_t seed : ExplorerSeeds()) {
    SCOPED_TRACE("explorer seed " + std::to_string(seed));
    EXPECT_EQ(RunGatewayDedup(seed, ExecutorKind::kThreads,
                              /*with_replays=*/true),
              reference);
  }
}

TEST(ScheduleExplorerTest, KillRestoreHashInvariantAcrossSchedules) {
  const uint64_t reference =
      RunCheckpointReshard(0, ExecutorKind::kSequential, ProtocolTiming{})
          .hash;
  // Fewer seeds than the mutation sweep: each seed is two full engine
  // incarnations. The mutation tests below rerun this driver anyway.
  std::vector<uint64_t> seeds = ExplorerSeeds();
  if (seeds.size() > 3) seeds.resize(3);
  for (const uint64_t seed : seeds) {
    SCOPED_TRACE("explorer seed " + std::to_string(seed));
    EXPECT_EQ(RunKillRestore(seed, ProtocolTiming{}), reference);
  }
}

TEST(ScheduleExplorerTest, CheckpointAcksFollowDurabilityAcrossSchedules) {
  ScopedAuditOn audit;
  const uint64_t reference =
      RunGatewayDedup(0, ExecutorKind::kSequential, /*with_replays=*/false);
  for (const uint64_t seed : ExplorerSeeds()) {
    SCOPED_TRACE("explorer seed " + std::to_string(seed));
    EXPECT_EQ(RunAckedKillRestore(seed), reference);
  }
}

// The serve loop's I/O thread commits staged runs, wakes the engine thread
// waiting for the arrival frontier, queues and drains acks and hands a
// dynamic attach over, all under the gateway lock; lockstep keeps results
// independent of how those interleave. Which epochs an ack names depends
// on the writer's pace (an epoch aligned while the writer is behind
// replaces the queued one), but acks name epochs in increasing order,
// every stream in each, and the final flush acks the same last epoch and
// cursors in every schedule.
TEST(ScheduleExplorerTest, ServeLoopHandOffInvariantAcrossSchedules) {
  ScopedAuditOn audit;
  const ServedRun reference = RunServedCheckpoints(0);
  ASSERT_FALSE(reference.acks.empty());
  const auto last_epoch = [](const ServedRun& run) {
    std::vector<QueuedAck> last;
    for (const QueuedAck& a : run.acks) {
      if (a.epoch == run.acks.back().epoch) last.push_back(a);
    }
    return last;
  };
  const std::vector<QueuedAck> reference_last = last_epoch(reference);
  ASSERT_EQ(reference_last.size(), 3u);
  for (const uint64_t seed : ExplorerSeeds()) {
    SCOPED_TRACE("explorer seed " + std::to_string(seed));
    const ServedRun run = RunServedCheckpoints(seed);
    EXPECT_EQ(run.hash, reference.hash);
    ASSERT_EQ(run.acks.size() % 3, 0u);
    for (size_t i = 0; i < run.acks.size(); i += 3) {
      for (size_t k = 0; k < 3; ++k) {
        const QueuedAck& a = run.acks[i + k];
        EXPECT_EQ(a.stream_id, MakeStreamId(static_cast<int>(k), 0));
        EXPECT_EQ(a.epoch, run.acks[i].epoch);
        if (i > 0) {
          EXPECT_GT(a.epoch, run.acks[i - 3 + k].epoch);
          EXPECT_GE(a.durable_seq, run.acks[i - 3 + k].durable_seq);
        }
      }
    }
    const std::vector<QueuedAck> last = last_epoch(run);
    ASSERT_EQ(last.size(), reference_last.size());
    for (size_t k = 0; k < last.size(); ++k) {
      EXPECT_EQ(last[k].epoch, reference_last[k].epoch);
      EXPECT_EQ(last[k].durable_seq, reference_last[k].durable_seq);
    }
  }
}

// ---------------------------------------------------------------------------
// Mutation harness: the explorer must re-detect both PR-8 checkpoint bugs.

TEST(ScheduleExplorerMutationTest, DetectsCheckpointedHoldBuffer) {
  ScopedAuditOff no_audit;  // the divergence itself is the signal
  const uint64_t reference =
      RunCheckpointReshard(0, ExecutorKind::kSequential, ProtocolTiming{})
          .hash;
  uint64_t detected_seed = 0;
  uint64_t detected_hash = 0;
  for (const uint64_t seed : ExplorerSeeds()) {
    ScopedTestFault fault(TestFault::kCheckpointHoldBuffer);
    const uint64_t hash = RunKillRestore(seed, ProtocolTiming{});
    if (hash != reference) {
      detected_seed = seed;
      detected_hash = hash;
      break;
    }
  }
  ASSERT_NE(detected_seed, 0u)
      << "no explored seed restored a mid-pause epoch; the re-injected "
         "hold-buffer bug went undetected";
  std::fprintf(stderr,
               "mutation #1 (checkpointed hold buffer) detected: seed %llu "
               "(replay with KLINK_EXPLORER_SEED=%llu)\n",
               static_cast<unsigned long long>(detected_seed),
               static_cast<unsigned long long>(detected_seed));
  RecordProperty("mutation1_seed", static_cast<int>(detected_seed));
  {
    // The logged seed replays the detection deterministically: same wrong
    // hash, not merely "some" wrong hash.
    ScopedTestFault fault(TestFault::kCheckpointHoldBuffer);
    EXPECT_EQ(RunKillRestore(detected_seed, ProtocolTiming{}), detected_hash);
  }
  // And without the mutation the very same schedule is clean.
  EXPECT_EQ(RunKillRestore(detected_seed, ProtocolTiming{}), reference);
}

TEST(ScheduleExplorerMutationTest, DetectsReportBeforeDrain) {
  ScopedAuditOff no_audit;
  const uint64_t reference =
      RunCheckpointReshard(0, ExecutorKind::kSequential, ProtocolTiming{})
          .hash;
  uint64_t detected_seed = 0;
  uint64_t detected_hash = 0;
  for (const uint64_t seed : ExplorerSeeds()) {
    const RunOutcome out =
        RunCheckpointReshard(seed, ExecutorKind::kThreads,
                             PerturbedTiming(seed), /*drain=*/false);
    if (out.hash != reference) {
      detected_seed = seed;
      detected_hash = out.hash;
      break;
    }
  }
  ASSERT_NE(detected_seed, 0u)
      << "hashing at the fixed cutoff without draining matched the drained "
         "reference on every seed; the re-injected report-before-drain bug "
         "went undetected";
  std::fprintf(stderr,
               "mutation #2 (report before drain) detected: seed %llu "
               "(replay with KLINK_EXPLORER_SEED=%llu)\n",
               static_cast<unsigned long long>(detected_seed),
               static_cast<unsigned long long>(detected_seed));
  RecordProperty("mutation2_seed", static_cast<int>(detected_seed));
  const RunOutcome replay =
      RunCheckpointReshard(detected_seed, ExecutorKind::kThreads,
                           PerturbedTiming(detected_seed), /*drain=*/false);
  EXPECT_EQ(replay.hash, detected_hash);
  // The fix — draining before reporting — restores the reference hash on
  // the exact schedule that exposed the bug.
  EXPECT_EQ(RunCheckpointReshard(detected_seed, ExecutorKind::kThreads,
                                 PerturbedTiming(detected_seed))
                .hash,
            reference);
}

// ---------------------------------------------------------------------------
// The explorer's deterministic deadlock report.

/// Classic lock-order inversion: two threads take {a, b} in opposite
/// orders with a preemption point in between. Static priorities alone
/// never interleave the bodies (the higher-priority thread runs to
/// completion), so detection hinges on PCT priority demotion landing
/// between the first acquire and the second — some seed in a small sweep
/// must find it and abort with the deadlock report.
void DeadlockScenario() {
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    ScheduleExplorerConfig cfg;
    cfg.seed = seed;
    cfg.priority_change_points = 3;
    cfg.max_steps_hint = 12;  // demotions land inside the tiny bodies
    ScheduleExplorer explorer(cfg);
    Mutex a("dl.a");
    Mutex b("dl.b");
    std::thread t1([&a, &b] {
      ThreadScheduleScope scope("dl-first");
      MutexLock la(&a);
      SchedulePoint("between");
      MutexLock lb(&b);
    });
    std::thread t2([&a, &b] {
      ThreadScheduleScope scope("dl-second");
      MutexLock lb(&b);
      SchedulePoint("between");
      MutexLock la(&a);
    });
    explorer.AwaitParticipants(3);
    ScheduleQuiesceBeforeJoin({t1.get_id(), t2.get_id()});
    t1.join();
    t2.join();
  }
  std::fprintf(stderr, "no deadlock found in 32 seeds\n");
}

TEST(ScheduleExplorerDeathTest, LockOrderInversionAbortsWithReport) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // Under ThreadSanitizer, TSan's own lock-order-inversion report would
  // end the re-executed child before the explorer reports. Only that child
  // runs with TSan's deadlock detector off: the runtime reads TSAN_OPTIONS
  // at startup, so this process keeps its detector.
  const char* inherited = std::getenv("TSAN_OPTIONS");
  const bool had_options = inherited != nullptr;
  const std::string options = had_options ? inherited : "";
  std::string child_options = options;
  if (!child_options.empty()) child_options += ':';
  child_options += "detect_deadlocks=0";
  setenv("TSAN_OPTIONS", child_options.c_str(), /*overwrite=*/1);
  EXPECT_DEATH(DeadlockScenario(), "schedule explorer DEADLOCK");
  if (had_options) {
    setenv("TSAN_OPTIONS", options.c_str(), /*overwrite=*/1);
  } else {
    unsetenv("TSAN_OPTIONS");
  }
}

}  // namespace
}  // namespace klink
