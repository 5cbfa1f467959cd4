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

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace klink
