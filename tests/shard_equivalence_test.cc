// Shard-count equivalence: a sharded keyed aggregation must produce the
// byte-identical results_hash of the unsharded operator, at every shard
// count, on both executor backends, with the invariant auditor on. The
// runs are driven to full drain (the feed stops at a cutoff and the engine
// keeps cycling until every queue is empty), so the comparison covers the
// complete output, not a backlog-dependent prefix.
//
// KLINK_AUDIT=1 makes each run also a proof of internal consistency: the
// engine auditor verifies queue accounting, selections and progress
// monotonicity every cycle while the partition/merge exchanges and shard
// lanes churn.
//
// ShardScaleTest holds the scaling bar of bench/micro_shard_scale: sharding
// must raise a keyed operator's drain throughput, not only keep its output.
//
// LaneContentionTest pins which lanes the lane-granular policies pick when
// ready units outnumber cores: every cycle's Selection, folded into one
// hash, on both executors.

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/serialize.h"
#include "src/common/types.h"
#include "src/harness/experiment.h"
#include "src/net/delay_model.h"
#include "src/operators/filter_operator.h"
#include "src/query/pipeline_builder.h"
#include "src/runtime/engine.h"
#include "src/runtime/event_feed.h"
#include "src/workloads/workload.h"

namespace klink {
namespace {

constexpr TimeMicros kFeedCutoff = SecondsToMicros(4);
constexpr double kEventsPerSecond = 6000.0;
/// One shard lane drains ~cycle/250us = 480 events/cycle (~4k/s), below
/// the offered rate: the 1-shard run carries real backlog, so shard counts
/// genuinely change scheduling order — exactly what must NOT change the
/// output.
constexpr double kAggCostMicros = 250.0;

/// Stops delivering feed elements past the cutoff so a run can be drained
/// to completion and its full output compared.
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

/// Source -> filter -> keyed tumbling aggregate -> sink, with the
/// aggregate sharded when `shards` > 0 (0 = the unsharded reference).
std::unique_ptr<Query> MakeQuery(int shards) {
  PipelineBuilder b("shard-eq");
  BuilderStream head =
      b.Source("src", 0.5).Filter("keep", 0.3,
                                  FilterOperator::HashPassRate(0.8), 0.8);
  if (shards > 0) {
    head = head.ShardedTumblingAggregate(
        "keyed-sum", kAggCostMicros, MillisToMicros(800),
        AggregationKind::kSum, ShardSpec{shards, shards});
  } else {
    head = head.TumblingAggregate("keyed-sum", kAggCostMicros,
                                  MillisToMicros(800), AggregationKind::kSum);
  }
  head.Sink("out", 0.5);
  return b.Build(/*id=*/0);
}

std::unique_ptr<EventFeed> MakeFeed(uint64_t seed) {
  SourceSpec spec;
  spec.events_per_second = kEventsPerSecond;
  spec.key_cardinality = 256;
  spec.watermark_period = MillisToMicros(250);
  spec.watermark_lag = MillisToMicros(60);
  auto feed = std::make_unique<SyntheticFeed>(
      std::vector<SourceSpec>{spec},
      std::make_unique<UniformDelay>(0, MillisToMicros(20)), seed, 0);
  return std::make_unique<CutoffFeed>(std::move(feed), kFeedCutoff);
}

struct RunOutput {
  uint64_t hash = 0;
  int64_t results = 0;
};

RunOutput RunOne(int shards, ExecutorKind executor, PolicyKind policy) {
  EngineConfig config;
  config.num_cores = 12;  // >= every lane of the widest topology
  config.memory_capacity_bytes = 64ll << 20;
  config.executor = executor;
  Engine engine(config,
                MakePolicy(policy, KlinkPolicyConfig{}, /*seed=*/7));
  const QueryId id = engine.AddQuery(MakeQuery(shards), MakeFeed(/*seed=*/3));

  engine.RunUntil(kFeedCutoff);
  // Full drain: the feed is dry past the cutoff, so the backlog strictly
  // shrinks; 60 virtual seconds is far beyond the worst case (~2s extra
  // backlog at 2k events/s of 1-shard deficit).
  const TimeMicros deadline = kFeedCutoff + SecondsToMicros(60);
  while (engine.query(id).QueuedEvents() > 0 && engine.now() < deadline) {
    engine.RunFor(SecondsToMicros(1));
  }
  EXPECT_EQ(engine.query(id).QueuedEvents(), 0)
      << "run did not drain (shards=" << shards << ")";

  RunOutput out;
  out.hash = engine.query(id).sink().results_hash();
  out.results = engine.query(id).sink().results_received();
  return out;
}

class ShardEquivalenceTest : public ::testing::TestWithParam<PolicyKind> {
 protected:
  void SetUp() override { setenv("KLINK_AUDIT", "1", 1); }
  void TearDown() override { unsetenv("KLINK_AUDIT"); }
};

// The bar: every (shard count, executor) combination — including the
// unsharded reference topology — prints one results_hash.
TEST_P(ShardEquivalenceTest, AllShardCountsAndExecutorsByteIdentical) {
  const RunOutput expect =
      RunOne(/*shards=*/0, ExecutorKind::kSequential, GetParam());
  ASSERT_GT(expect.results, 0);
  for (const ExecutorKind executor :
       {ExecutorKind::kSequential, ExecutorKind::kThreads}) {
    for (const int shards : {1, 2, 4, 8}) {
      const RunOutput got = RunOne(shards, executor, GetParam());
      EXPECT_EQ(got.hash, expect.hash)
          << "shards=" << shards
          << " executor=" << ExecutorKindName(executor);
      EXPECT_EQ(got.results, expect.results)
          << "shards=" << shards
          << " executor=" << ExecutorKindName(executor);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, ShardEquivalenceTest,
                         ::testing::Values(PolicyKind::kFcfs,
                                           PolicyKind::kKlink),
                         [](const ::testing::TestParamInfo<PolicyKind>& p) {
                           return p.param == PolicyKind::kFcfs ? "Fcfs"
                                                               : "Klink";
                         });

/// Events the keyed aggregate drains in 2 s of virtual time after a 1 s
/// warm-up, with bench/micro_shard_scale's smoke setup: FCFS on 12 cores,
/// a 100 us keyed count fed 120k uniform-key ev/s over 1024 keys, so every
/// shard keeps backlog and drain capacity is what is measured. Virtual
/// drain does not depend on the executor; the test runs the sequential one.
int64_t KeyedDrain(int shards) {
  PipelineBuilder b("shard-scale");
  b.Source("src", 0.2)
      .ShardedTumblingAggregate("keyed-count", 100.0, SecondsToMicros(1),
                                AggregationKind::kCount,
                                ShardSpec{shards, shards})
      .Sink("out", 0.2);
  SourceSpec spec;
  spec.events_per_second = 120000.0;
  spec.key_cardinality = 1024;
  spec.watermark_period = MillisToMicros(500);
  spec.watermark_lag = MillisToMicros(100);
  EngineConfig config;
  config.num_cores = 12;
  config.cycle_length = MillisToMicros(120);
  config.memory_capacity_bytes = 64ll << 20;
  Engine engine(config, MakePolicy(PolicyKind::kFcfs, KlinkPolicyConfig{},
                                   /*seed=*/7));
  const QueryId id = engine.AddQuery(
      b.Build(/*id=*/0),
      std::make_unique<SyntheticFeed>(
          std::vector<SourceSpec>{spec},
          std::make_unique<ConstantDelay>(MillisToMicros(5)), /*seed=*/42, 0));
  const auto drained = [&] {
    const Query::ShardRegion& region = engine.query(id).shard_region();
    int64_t total = 0;
    for (int i = region.shard_begin; i < region.shard_end; ++i) {
      total += engine.query(id).op(i).processed_data_count();
    }
    return total;
  };
  engine.RunFor(SecondsToMicros(1));
  const int64_t before = drained();
  engine.RunFor(SecondsToMicros(2));
  return drained() - before;
}

// Sharding lifts the one-quantum-per-cycle cap of a keyed operator: with
// uniform keys, 4 shards drain at least 2.5x what 1 shard does.
TEST(ShardScaleTest, FourShardsDrainAtLeastTwoAndAHalfTimesOne) {
  const int64_t one = KeyedDrain(1);
  const int64_t four = KeyedDrain(4);
  ASSERT_GT(one, 0);
  EXPECT_GE(static_cast<double>(four), 2.5 * static_cast<double>(one))
      << "1 shard drained " << one << ", 4 shards " << four;
}

uint64_t FoldWord(uint64_t hash, uint64_t word) {
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<uint8_t>(word >> (8 * i));
  return Fnv1aBytes(bytes, sizeof(bytes), hash);
}

/// Delegates to a real policy and folds every Selection it makes into an
/// FNV-1a hash: the slot count, then each slot's (query, lane). Also counts
/// the cycles in which more units were ready than slots, and the
/// whole-query slots (lane -1), which only Klink's memory mode picks once
/// every query is sharded.
class SelectionHashPolicy final : public SchedulingPolicy {
 public:
  explicit SelectionHashPolicy(std::unique_ptr<SchedulingPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void SelectQueries(const RuntimeSnapshot& snapshot, int slots,
                     Selection* out) override {
    inner_->SelectQueries(snapshot, slots, out);
    int ready = 0;
    for (const QueryInfo& info : snapshot.queries) {
      for (const LaneInfo& unit : info.units()) {
        ready += unit.queued_events > 0 ? 1 : 0;
      }
    }
    contended_cycles += ready > slots ? 1 : 0;
    hash = FoldWord(hash, out->size());
    for (const SlotAssignment& slot : *out) {
      hash = FoldWord(hash, static_cast<uint64_t>(slot.query));
      hash = FoldWord(hash, static_cast<uint64_t>(slot.lane));
      whole_query_slots += slot.lane == -1 ? 1 : 0;
    }
  }
  double EvaluationCostMicros(const RuntimeSnapshot& snapshot) override {
    return inner_->EvaluationCostMicros(snapshot);
  }

  uint64_t hash = 14695981039346656037ull;
  int contended_cycles = 0;
  int whole_query_slots = 0;

 private:
  std::unique_ptr<SchedulingPolicy> inner_;
};

struct ContentionRun {
  uint64_t selections = 0;
  uint64_t results_hash = 0;
  double swm_mean = 0.0;
  int contended_cycles = 0;
  int whole_query_slots = 0;
};

/// Six YSB tenants with four shards each on four cores for 20 virtual
/// seconds: 36 lanes compete for 4 slots in nearly every cycle.
ContentionRun RunContended(PolicyKind policy, int64_t memory_bytes,
                           ExecutorKind executor) {
  constexpr int kTenants = 6;
  EngineConfig config;
  config.num_cores = 4;
  config.memory_capacity_bytes = memory_bytes;
  config.executor = executor;
  auto owned = std::make_unique<SelectionHashPolicy>(
      MakePolicy(policy, KlinkPolicyConfig{}, /*seed=*/7));
  const SelectionHashPolicy* recorder = owned.get();
  Engine engine(config, std::move(owned));
  for (int q = 0; q < kTenants; ++q) {
    TenantSpec tenant;
    tenant.events_per_second = 2500.0;
    tenant.watermark_lag = WatermarkLagFor(DelayKind::kUniform);
    tenant.window_offset =
        WindowOffsetRange(WorkloadKind::kYsb) * q / kTenants;
    tenant.shards = 4;
    tenant.max_shards = 4;
    std::unique_ptr<Query> query;
    std::unique_ptr<EventFeed> feed;
    MakeTenant(tenant, q, &query, &feed, MakeDelayModel(DelayKind::kUniform),
               /*feed_seed=*/100 + static_cast<uint64_t>(q));
    engine.AddQuery(std::move(query), std::move(feed));
  }
  engine.RunUntil(SecondsToMicros(20));

  ContentionRun run;
  run.selections = recorder->hash;
  run.contended_cycles = recorder->contended_cycles;
  run.whole_query_slots = recorder->whole_query_slots;
  run.results_hash = 14695981039346656037ull;
  for (QueryId q = 0; q < kTenants; ++q) {
    run.results_hash =
        FoldWord(run.results_hash, engine.query(q).sink().results_hash());
  }
  run.swm_mean = engine.AggregateSwmLatency().mean();
  return run;
}

// FCFS ranks lanes by oldest ingest, Klink by slack, both with (query,
// lane) tie-breaks; Klink's memory mode picks whole sharded queries
// instead. A change to a unit's stats, a ranking or a tie-break moves the
// selection hash.
TEST(LaneContentionTest, LaneDecisionsArePinnedOnBothExecutors) {
  struct Pin {
    PolicyKind policy;
    int64_t memory_bytes;
    uint64_t selections;
    uint64_t results_hash;
    double swm_mean;
  };
  const Pin pins[] = {
      {PolicyKind::kFcfs, 16ll << 20, 0xdd9663c21bc769c7ull,
       0xca72dbfd976c1756ull, 1456899.4545454546},
      {PolicyKind::kFcfs, 4ll << 20, 0xdd9663c21bc769c7ull,
       0xca72dbfd976c1756ull, 1456899.4545454546},
      {PolicyKind::kKlink, 16ll << 20, 0x9729bafb457ec0c2ull,
       0x242fecf2adbe7123ull, 1210522.6666666667},
      {PolicyKind::kKlink, 4ll << 20, 0x49d64f5d5c89e2a6ull,
       0x4546a2c860dec671ull, 3645248.96875},
      {PolicyKind::kKlinkNoMm, 16ll << 20, 0xbbf20783ec685f41ull,
       0x4dbd61d9e62d1f8dull, 1031364.9230769231},
      {PolicyKind::kKlinkNoMm, 4ll << 20, 0x5a263e08c67641a3ull,
       0xd59154138c92ed11ull, 2857376.3333333335},
  };
  for (const Pin& pin : pins) {
    for (const ExecutorKind executor :
         {ExecutorKind::kSequential, ExecutorKind::kThreads}) {
      SCOPED_TRACE(std::string(PolicyKindName(pin.policy)) + " " +
                   std::to_string(pin.memory_bytes >> 20) + " MB " +
                   ExecutorKindName(executor));
      const ContentionRun run =
          RunContended(pin.policy, pin.memory_bytes, executor);
      EXPECT_EQ(run.selections, pin.selections);
      EXPECT_EQ(run.results_hash, pin.results_hash);
      EXPECT_EQ(run.swm_mean, pin.swm_mean);
      // Contended: more ready units than the 4 cores in at least 9 of
      // every 10 of the 167 cycles.
      EXPECT_GE(run.contended_cycles, 150);
      // Whole-query slots are memory-mode picks, which only Klink makes.
      if (pin.policy == PolicyKind::kKlink) {
        EXPECT_GT(run.whole_query_slots, 0);
      } else {
        EXPECT_EQ(run.whole_query_slots, 0);
      }
    }
  }
}

}  // namespace
}  // namespace klink
