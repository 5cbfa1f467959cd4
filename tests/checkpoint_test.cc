// Checkpoint subsystem coverage (DESIGN.md "Fault tolerance"):
//
//  1. Operator Serialize/Restore round-trips byte-identically: a restored
//     operator re-serializes to the exact bytes it was restored from.
//  2. The CheckpointCoordinator injects epoch barriers into a live engine,
//     aligns them across operators (including a two-input join), and
//     writes hash-manifested epoch files that LoadLatestCheckpoint reads
//     back structurally intact.
//  3. Torn-checkpoint fallback: a truncated or bit-flipped newest epoch
//     file falls back to the previous complete epoch; when every epoch is
//     damaged, loading reports no checkpoint instead of garbage.
//  4. A resumed coordinator continues epoch numbering and pruning from the
//     manifest a previous incarnation left behind.
//  5. An epoch whose MANIFEST cannot be written is never durable: no
//     frontier advance, no ack.
//  6. The checkpoint bytes of a 3-input join, of an allowed-lateness
//     aggregate and of a sink holding latency samples are pinned, so
//     epochs written by earlier builds restore; a sink written with the
//     dense latency histograms of earlier builds restores into this one.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/serialize.h"
#include "src/net/delay_model.h"
#include "src/net/ingest_gateway.h"
#include "src/operators/aggregate_operator.h"
#include "src/operators/join_operator.h"
#include "src/operators/sink_operator.h"
#include "src/query/pipeline_builder.h"
#include "src/query/query.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/engine.h"
#include "src/sched/rr_policy.h"
#include "src/window/window_assigner.h"
#include "src/workloads/workload.h"
#include "tests/support/dense_histogram.h"
#include "tests/support/klink_run_process.h"

namespace klink {
namespace {

/// Masks KLINK_AUDIT for one scope. LoadLatestCheckpoint treats a hash
/// mismatch as fatal under audit (tmp+rename makes torn files impossible in
/// normal operation, so audit runs abort; see AuditDeathTest). The torn
/// tests below damage epoch files *on purpose* to exercise the production
/// fallback, so they load with audit masked even when the whole suite runs
/// under KLINK_AUDIT=1.
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

/// A stateful single-source pipeline: reorder buffer + tumbling count.
std::unique_ptr<Query> CountQuery(QueryId id) {
  PipelineBuilder b("count");
  b.Source("src", 5.0)
      .Reorder("iop", 1.0)
      .TumblingAggregate("w", 10.0, SecondsToMicros(1),
                         AggregationKind::kCount)
      .Sink("out", 2.0);
  return b.Build(id);
}

/// A two-source join: barriers must align across both join inputs.
std::unique_ptr<Query> JoinQuery(QueryId id) {
  PipelineBuilder b("join");
  auto left = b.Source("left", 5.0);
  auto right = b.Source("right", 5.0);
  b.TumblingJoin("join", 15.0, SecondsToMicros(1), {left, right})
      .Sink("out", 2.0);
  return b.Build(id);
}

SourceSpec SteadySpec(double rate) {
  SourceSpec spec;
  spec.events_per_second = rate;
  spec.key_cardinality = 10;
  spec.watermark_period = MillisToMicros(250);
  spec.watermark_lag = MillisToMicros(50);
  return spec;
}

std::unique_ptr<EventFeed> SteadyFeed(double rate, uint64_t seed,
                                      int num_sources = 1) {
  std::vector<SourceSpec> specs(static_cast<size_t>(num_sources),
                                SteadySpec(rate));
  return std::make_unique<SyntheticFeed>(
      specs, std::make_unique<ConstantDelay>(MillisToMicros(10)), seed, 0);
}

std::vector<std::vector<uint8_t>> SerializeAllOps(const Query& q) {
  std::vector<std::vector<uint8_t>> blobs;
  for (int i = 0; i < q.num_operators(); ++i) {
    StateWriter w;
    q.op(i).Serialize(w);
    blobs.push_back(w.TakeBytes());
  }
  return blobs;
}

TEST(CheckpointStateTest, OperatorRoundTripIsByteIdentical) {
  for (const bool join : {false, true}) {
    EngineConfig config;
    Engine engine(config, std::make_unique<RoundRobinPolicy>());
    engine.AddQuery(join ? JoinQuery(0) : CountQuery(0),
                    SteadyFeed(800, 11, join ? 2 : 1));
    engine.RunFor(SecondsToMicros(3));

    const std::vector<std::vector<uint8_t>> blobs =
        SerializeAllOps(engine.query(0));

    std::unique_ptr<Query> fresh = join ? JoinQuery(0) : CountQuery(0);
    ASSERT_EQ(fresh->num_operators(), static_cast<int>(blobs.size()));
    for (int i = 0; i < fresh->num_operators(); ++i) {
      StateReader r(blobs[static_cast<size_t>(i)]);
      fresh->op(i).Restore(r);
      ASSERT_TRUE(r.ok());
      ASSERT_TRUE(r.AtEnd());
    }
    // The restored operators must re-serialize to the exact same bytes:
    // this is what makes a restored run's results byte-identical.
    EXPECT_EQ(SerializeAllOps(*fresh), blobs) << "join=" << join;
  }
}

/// FNV-1a of `op`'s checkpoint bytes, after checking that they restore
/// into `fresh` (an identically built operator) and re-serialize
/// unchanged.
uint64_t CheckpointHash(const Operator& op, Operator& fresh) {
  StateWriter w;
  op.Serialize(w);
  const std::vector<uint8_t> bytes = w.TakeBytes();
  StateReader r(bytes);
  fresh.Restore(r);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
  StateWriter again;
  fresh.Serialize(again);
  EXPECT_EQ(again.TakeBytes(), bytes);
  return Fnv1aBytes(bytes.data(), bytes.size());
}

/// Keys arrive out of sorted order (k = 7i mod 13), so a format that wrote
/// a pane's keys in arrival order instead of sorted order would change the
/// bytes.
uint64_t ScrambledKey(int i) { return static_cast<uint64_t>(i * 7 % 13); }

std::unique_ptr<WindowJoinOperator> ThreeInputJoin() {
  return std::make_unique<WindowJoinOperator>(
      "join", 1.0,
      std::make_unique<TumblingWindowAssigner>(MillisToMicros(100)),
      /*num_inputs=*/3);
}

TEST(CheckpointFormatTest, ThreeInputJoinBytesArePinned) {
  // The checkpoint format of a join's pane state: epochs written by
  // earlier builds must restore into this one. The constant was captured
  // before pane state moved from std::unordered_map to FlatTable.
  std::unique_ptr<WindowJoinOperator> join = ThreeInputJoin();
  NullEmitter out;
  TimeMicros now = 0;
  for (int i = 0; i < 450; ++i) {
    const TimeMicros t = MillisToMicros(i);
    // Stream 2 skips every fifth element, so some keys miss one stream.
    for (int s = 0; s < 3; ++s) {
      if (s == 2 && i % 5 == 0) continue;
      Event e = MakeDataEvent(t, t + 700, ScrambledKey(i + s), 0.25 * i);
      e.stream = s;
      join->Process(e, now += 3, out);
    }
    if (i % 60 == 59 && i > 150) {
      for (int s = 0; s < 3; ++s) {
        Event wm = MakeWatermark(t - MillisToMicros(150), t + 700);
        wm.stream = s;
        join->Process(wm, now += 3, out);
      }
    }
  }
  ASSERT_GT(join->fired_panes(), 0);
  ASSERT_GT(join->open_panes(), 1);
  std::unique_ptr<WindowJoinOperator> fresh = ThreeInputJoin();
  EXPECT_EQ(CheckpointHash(*join, *fresh), 0x958d12515af925bbULL);
}

std::unique_ptr<WindowAggregateOperator> LateAggregate() {
  auto agg = std::make_unique<WindowAggregateOperator>(
      "agg", 1.0,
      std::make_unique<TumblingWindowAssigner>(MillisToMicros(100)),
      AggregationKind::kSum);
  agg->SetAllowedLateness(MillisToMicros(300));
  return agg;
}

TEST(CheckpointFormatTest, AggregateWithLatenessBytesArePinned) {
  // Open panes, retained (speculatively fired) panes and pending refire
  // marks all in one checkpoint. The constant was captured before pane
  // state moved from std::unordered_map to FlatTable.
  std::unique_ptr<WindowAggregateOperator> agg = LateAggregate();
  NullEmitter out;
  TimeMicros now = 0;
  for (int i = 0; i < 450; ++i) {
    const TimeMicros t = MillisToMicros(i);
    agg->Process(MakeDataEvent(t, t + 700, ScrambledKey(i), 0.5 * i),
                 now += 3, out);
  }
  // Fires [0,100), [100,200) and [200,300) into the retained store.
  agg->Process(MakeWatermark(MillisToMicros(320), MillisToMicros(460)),
               now += 3, out);
  // Late arrivals fold into retained panes and mark them dirty.
  for (int i = 0; i < 40; ++i) {
    const TimeMicros t = MillisToMicros(5 * i + 50);
    agg->Process(MakeDataEvent(t, MillisToMicros(470), ScrambledKey(3 * i),
                               1.5 + i),
                 now += 3, out);
  }
  ASSERT_GT(agg->open_panes(), 0);
  ASSERT_GT(agg->retained_panes(), 0);
  ASSERT_GT(agg->PendingRefires(), 0);
  std::unique_ptr<WindowAggregateOperator> fresh = LateAggregate();
  EXPECT_EQ(CheckpointHash(*agg, *fresh), 0xe080139627004091ULL);
}

/// A sink's latency samples, recorded by the sink and by dense references.
struct LatencySink {
  std::unique_ptr<SinkOperator> sink =
      std::make_unique<SinkOperator>("out", 2.0);
  DenseHistogram swm;
  DenseHistogram marker;
};

/// A sink holding results, SWM latencies and marker latencies from 0 us to
/// hours, so the samples land in exact, low and high buckets.
LatencySink SinkWithLatencies() {
  LatencySink s;
  NullEmitter out;
  for (int i = 0; i < 300; ++i) {
    const TimeMicros t = MillisToMicros(10 * (i + 1));
    s.sink->Process(MakeDataEvent(t, t, ScrambledKey(i), 0.25 * i), t + 40,
                    out);
    const DurationMicros lat =
        i % 7 == 0 ? i % 50 : (int64_t{1} << (i % 36)) + 7 * i;
    Event wm = MakeWatermark(t, t);
    wm.swm = i % 3 != 0;
    s.sink->Process(wm, t + lat, out);
    if (wm.swm) s.swm.Add(lat);
    const DurationMicros marker_lat = lat / 3 + i;
    s.sink->Process(MakeLatencyMarker(t, t), t + marker_lat, out);
    s.marker.Add(marker_lat);
  }
  return s;
}

TEST(CheckpointFormatTest, SinkWithLatenciesBytesArePinned) {
  // Only the non-empty latency buckets are written.
  const LatencySink s = SinkWithLatencies();
  ASSERT_GT(s.sink->swm_latency().count(), 0);
  ASSERT_GT(s.sink->marker_latency().count(), 0);
  SinkOperator fresh("out", 2.0);
  EXPECT_EQ(CheckpointHash(*s.sink, fresh), 0x7179e28e7a421244ULL);
}

/// The sink's checkpoint bytes in the layout of builds whose histograms
/// wrote every bucket: its own bytes, with the two latency histograms it
/// serializes last re-encoded densely.
std::vector<uint8_t> LegacyDenseBytes(const LatencySink& s) {
  StateWriter all;
  s.sink->Serialize(all);
  std::vector<uint8_t> bytes = all.TakeBytes();
  StateWriter sparse;
  s.sink->swm_latency().Serialize(sparse);
  s.sink->marker_latency().Serialize(sparse);
  const size_t prefix = bytes.size() - sparse.bytes().size();
  EXPECT_TRUE(std::equal(sparse.bytes().begin(), sparse.bytes().end(),
                         bytes.begin() + static_cast<std::ptrdiff_t>(prefix)));
  bytes.resize(prefix);
  StateWriter dense;
  s.swm.SerializeDense(dense);
  s.marker.SerializeDense(dense);
  bytes.insert(bytes.end(), dense.bytes().begin(), dense.bytes().end());
  return bytes;
}

TEST(CheckpointFormatTest, DenseLatencySinkFromEarlierBuildsRestores) {
  // The constant is the FNV-1a of what SinkOperator::Serialize wrote for
  // this sink while Histogram kept all 3712 buckets, so LegacyDenseBytes
  // writes exactly that layout.
  const LatencySink s = SinkWithLatencies();
  const std::vector<uint8_t> legacy = LegacyDenseBytes(s);
  EXPECT_EQ(Fnv1aBytes(legacy.data(), legacy.size()), 0xc9189cfe7d371da3ULL);
  SinkOperator fresh("out", 2.0);
  StateReader r(legacy);
  fresh.Restore(r);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());
  EXPECT_EQ(fresh.results_hash(), s.sink->results_hash());
  EXPECT_EQ(fresh.results_received(), s.sink->results_received());
  const std::pair<const Histogram*, const Histogram*> pairs[] = {
      {&fresh.swm_latency(), &s.sink->swm_latency()},
      {&fresh.marker_latency(), &s.sink->marker_latency()}};
  for (const auto& [restored, original] : pairs) {
    EXPECT_EQ(restored->count(), original->count());
    EXPECT_EQ(restored->min(), original->min());
    EXPECT_EQ(restored->max(), original->max());
    EXPECT_EQ(restored->mean(), original->mean());
    for (const double p : {0.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      EXPECT_EQ(restored->Percentile(p), original->Percentile(p)) << "p" << p;
    }
  }
  // Restored, the sink writes what the original writes in this build.
  StateWriter again, original;
  fresh.Serialize(again);
  s.sink->Serialize(original);
  EXPECT_EQ(again.bytes(), original.bytes());
}

TEST(CheckpointCoordinatorTest, WritesDurableEpochsDuringRun) {
  const std::string dir = MakeTempDir("ckpt_run");
  CheckpointConfig cc;
  cc.dir = dir;
  cc.interval = MillisToMicros(500);
  CheckpointCoordinator coordinator(cc);

  EngineConfig config;
  Engine engine(config, std::make_unique<RoundRobinPolicy>());
  const QueryId count_id = engine.AddQuery(CountQuery(0), SteadyFeed(500, 1));
  const QueryId join_id =
      engine.AddQuery(JoinQuery(1), SteadyFeed(400, 2, /*num_sources=*/2));
  coordinator.RegisterQuery(&engine.query(count_id), {}, nullptr);
  coordinator.RegisterQuery(&engine.query(join_id), {}, nullptr);
  engine.SetCheckpointCoordinator(&coordinator);
  engine.RunFor(SecondsToMicros(5));
  coordinator.Flush();

  // ~9 epochs injected over 5 s at 500 ms spacing; at least the first few
  // must have fully aligned and become durable.
  EXPECT_GE(coordinator.epochs_started(), 8u);
  EXPECT_GE(coordinator.last_durable_epoch(), 2u);
  // One barrier per source per epoch (1 + 2 sources).
  EXPECT_EQ(coordinator.barriers_injected(),
            static_cast<int64_t>(coordinator.epochs_started()) * 3);

  LoadedCheckpoint loaded;
  ASSERT_TRUE(LoadLatestCheckpoint(dir, &loaded));
  EXPECT_EQ(loaded.epoch, coordinator.last_durable_epoch());
  EXPECT_GT(loaded.checkpoint_time, 0);
  ASSERT_EQ(loaded.queries.size(), 2u);
  EXPECT_EQ(loaded.queries[0].query_id, count_id);
  EXPECT_EQ(loaded.queries[1].query_id, join_id);
  EXPECT_EQ(static_cast<int>(loaded.queries[0].op_blobs.size()),
            engine.query(count_id).num_operators());
  EXPECT_EQ(static_cast<int>(loaded.queries[1].op_blobs.size()),
            engine.query(join_id).num_operators());
  // In-process feeds have no gateway: no replay cursors.
  EXPECT_TRUE(loaded.queries[0].cursors.empty());

  // The blobs restore into a freshly built identical topology and
  // re-serialize byte-identically.
  std::unique_ptr<Query> fresh_count = CountQuery(0);
  RestoreQueryState(loaded.queries[0], fresh_count.get());
  EXPECT_EQ(SerializeAllOps(*fresh_count), loaded.queries[0].op_blobs);
  std::unique_ptr<Query> fresh_join = JoinQuery(1);
  RestoreQueryState(loaded.queries[1], fresh_join.get());
  EXPECT_EQ(SerializeAllOps(*fresh_join), loaded.queries[1].op_blobs);
}

/// Runs a short checkpointed engine and returns the checkpoint dir with at
/// least two durable epochs in it, consecutive ones: it flushes after every
/// cycle, so no aligned epoch replaces another still queued for the writer.
std::string RunWithCheckpoints(const std::string& tag) {
  const std::string dir = MakeTempDir("ckpt_" + tag);
  CheckpointConfig cc;
  cc.dir = dir;
  cc.interval = MillisToMicros(500);
  CheckpointCoordinator coordinator(cc);
  EngineConfig config;
  Engine engine(config, std::make_unique<RoundRobinPolicy>());
  engine.AddQuery(CountQuery(0), SteadyFeed(500, 1));
  coordinator.RegisterQuery(&engine.query(0), {}, nullptr);
  engine.SetCheckpointCoordinator(&coordinator);
  while (engine.now() < SecondsToMicros(5)) {
    engine.RunFor(config.cycle_length);
    coordinator.Flush();
  }
  EXPECT_GE(coordinator.last_durable_epoch(), 2u);
  return dir;
}

std::string EpochPath(const std::string& dir, uint64_t epoch) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/epoch_%llu.ckpt",
                static_cast<unsigned long long>(epoch));
  return dir + buf;
}

TEST(CheckpointTornTest, TruncatedNewestFallsBackToPreviousEpoch) {
  const std::string dir = RunWithCheckpoints("trunc");
  LoadedCheckpoint before;
  ASSERT_TRUE(LoadLatestCheckpoint(dir, &before));
  const uint64_t newest = before.epoch;

  // Tear the newest file in half: the load must fall back one epoch.
  ASSERT_EQ(::truncate(EpochPath(dir, newest).c_str(), 32), 0);
  ScopedAuditOff no_audit;
  LoadedCheckpoint after;
  ASSERT_TRUE(LoadLatestCheckpoint(dir, &after));
  EXPECT_EQ(after.epoch, newest - 1);
  EXPECT_FALSE(after.queries.empty());
}

TEST(CheckpointTornTest, CorruptedNewestFallsBackToPreviousEpoch) {
  const std::string dir = RunWithCheckpoints("flip");
  LoadedCheckpoint before;
  ASSERT_TRUE(LoadLatestCheckpoint(dir, &before));
  const uint64_t newest = before.epoch;

  // Flip one payload byte: the manifest hash no longer matches.
  const std::string path = EpochPath(dir, newest);
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
  uint8_t byte = 0;
  ASSERT_EQ(std::fread(&byte, 1, 1, f), 1u);
  byte ^= 0xFF;
  ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&byte, 1, 1, f), 1u);
  std::fclose(f);

  ScopedAuditOff no_audit;
  LoadedCheckpoint after;
  ASSERT_TRUE(LoadLatestCheckpoint(dir, &after));
  EXPECT_EQ(after.epoch, newest - 1);
}

TEST(CheckpointTornTest, AllEpochsDamagedMeansNoCheckpoint) {
  const std::string dir = RunWithCheckpoints("all");
  LoadedCheckpoint before;
  ASSERT_TRUE(LoadLatestCheckpoint(dir, &before));
  ASSERT_EQ(::truncate(EpochPath(dir, before.epoch).c_str(), 8), 0);
  ASSERT_EQ(::truncate(EpochPath(dir, before.epoch - 1).c_str(), 8), 0);
  ScopedAuditOff no_audit;
  LoadedCheckpoint after;
  EXPECT_FALSE(LoadLatestCheckpoint(dir, &after));
}

TEST(CheckpointTornTest, MissingDirectoryMeansNoCheckpoint) {
  LoadedCheckpoint loaded;
  EXPECT_FALSE(LoadLatestCheckpoint("/nonexistent/klink-ckpt", &loaded));
}

TEST(CheckpointCoordinatorTest, ResumeContinuesEpochNumbering) {
  const std::string dir = RunWithCheckpoints("resume");
  LoadedCheckpoint loaded;
  ASSERT_TRUE(LoadLatestCheckpoint(dir, &loaded));

  // Second incarnation: restore state, resume the epoch sequence, run on.
  CheckpointConfig cc;
  cc.dir = dir;
  cc.interval = MillisToMicros(500);
  CheckpointCoordinator coordinator(cc);
  EXPECT_EQ(coordinator.last_durable_epoch(), loaded.epoch);

  EngineConfig config;
  Engine engine(config, std::make_unique<RoundRobinPolicy>());
  engine.AddQuery(CountQuery(0), SteadyFeed(500, 1));
  RestoreQueryState(loaded.queries[0], &engine.query(0));
  engine.RestoreClock(loaded.checkpoint_time);
  coordinator.RegisterQuery(&engine.query(0), {}, nullptr);
  coordinator.ResumeFrom(loaded.epoch, loaded.checkpoint_time);
  engine.SetCheckpointCoordinator(&coordinator);
  engine.RunFor(SecondsToMicros(3));
  coordinator.Flush();

  EXPECT_GT(coordinator.last_durable_epoch(), loaded.epoch);
  LoadedCheckpoint newer;
  ASSERT_TRUE(LoadLatestCheckpoint(dir, &newer));
  EXPECT_GT(newer.epoch, loaded.epoch);
  EXPECT_GT(newer.checkpoint_time, loaded.checkpoint_time);
}

TEST(CheckpointCoordinatorTest, FailedManifestWriteNeverAcks) {
  // MANIFEST.tmp is a directory, so every epoch file lands but no MANIFEST
  // can be written: no epoch is durable, and none may be acked.
  const std::string dir = MakeTempDir("ckpt_nomanifest");
  const std::string blocker = dir + "/MANIFEST.tmp";
  ASSERT_EQ(::mkdir(blocker.c_str(), 0755), 0);
  CheckpointConfig cc;
  cc.dir = dir;
  cc.interval = MillisToMicros(500);
  CheckpointCoordinator coordinator(cc);
  int acks = 0;
  coordinator.SetAckCallback(
      [&acks](uint32_t, uint64_t, uint64_t) { ++acks; });

  // The gateway only supplies replay cursors; acks are per gateway stream.
  IngestGateway gateway;
  gateway.RegisterStream(0, IngestStreamConfig{});
  EngineConfig config;
  Engine engine(config, std::make_unique<RoundRobinPolicy>());
  engine.AddQuery(CountQuery(0), SteadyFeed(500, 1));
  coordinator.RegisterQuery(&engine.query(0), {0}, &gateway);
  engine.SetCheckpointCoordinator(&coordinator);
  engine.RunFor(SecondsToMicros(3));
  coordinator.Flush();

  EXPECT_GE(coordinator.epochs_started(), 4u);
  EXPECT_EQ(coordinator.last_durable_epoch(), 0u);
  EXPECT_EQ(acks, 0);
  LoadedCheckpoint loaded;
  EXPECT_FALSE(LoadLatestCheckpoint(dir, &loaded));

  // Once the MANIFEST is writable again, later epochs become durable.
  ASSERT_EQ(::rmdir(blocker.c_str()), 0);
  engine.RunFor(SecondsToMicros(2));
  coordinator.Flush();
  EXPECT_GT(coordinator.last_durable_epoch(), 0u);
  EXPECT_GT(acks, 0);
  ASSERT_TRUE(LoadLatestCheckpoint(dir, &loaded));
  EXPECT_EQ(loaded.epoch, coordinator.last_durable_epoch());
}

}  // namespace
}  // namespace klink
