#include "src/runtime/executor.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/net/delay_model.h"
#include "src/klink/klink_policy.h"
#include "src/query/pipeline_builder.h"
#include "src/runtime/engine.h"
#include "src/sched/rr_policy.h"
#include "src/workloads/workload.h"

namespace klink {
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

TEST(ExecutorKindTest, ParseAndNameRoundTrip) {
  ExecutorKind kind = ExecutorKind::kThreads;
  EXPECT_TRUE(ParseExecutorKind("sequential", &kind));
  EXPECT_EQ(kind, ExecutorKind::kSequential);
  EXPECT_TRUE(ParseExecutorKind("threads", &kind));
  EXPECT_EQ(kind, ExecutorKind::kThreads);
  EXPECT_STREQ(ExecutorKindName(ExecutorKind::kSequential), "sequential");
  EXPECT_STREQ(ExecutorKindName(ExecutorKind::kThreads), "threads");
}

TEST(ExecutorKindTest, ParseRejectsUnknownNames) {
  ExecutorKind kind = ExecutorKind::kSequential;
  EXPECT_FALSE(ParseExecutorKind("", &kind));
  EXPECT_FALSE(ParseExecutorKind("parallel", &kind));
  EXPECT_FALSE(ParseExecutorKind("Sequential", &kind));
  EXPECT_EQ(kind, ExecutorKind::kSequential);  // untouched on failure
}

TEST(ExecutorFactoryTest, BuildsNamedBackends) {
  const auto seq = MakeExecutor(ExecutorKind::kSequential, 3);
  ASSERT_NE(seq, nullptr);
  EXPECT_EQ(seq->name(), "sequential");
  EXPECT_EQ(seq->num_slots(), 3);
  const auto thr = MakeExecutor(ExecutorKind::kThreads, 2);
  ASSERT_NE(thr, nullptr);
  EXPECT_EQ(thr->name(), "threads");
  EXPECT_EQ(thr->num_slots(), 2);
}

// Everything the figures are built from, captured after one run.
struct RunResult {
  int64_t processed = 0;
  double busy = 0.0;
  int64_t lat_count = 0;
  double lat_mean = 0.0;
  int64_t lat_min = 0;
  int64_t lat_max = 0;
  int64_t lat_p50 = 0;
  int64_t lat_p99 = 0;
  double slowdown = 0.0;
  std::vector<int64_t> results;
};

template <typename MakePolicy>
RunResult RunWith(ExecutorKind kind, MakePolicy make_policy) {
  EngineConfig config;
  config.num_cores = 4;
  config.executor = kind;
  Engine engine(config, make_policy());
  for (int i = 0; i < 6; ++i) {
    engine.AddQuery(CountQuery(i),
                    SteadyFeed(400.0 + 100.0 * i, /*seed=*/20 + i));
  }
  engine.RunFor(SecondsToMicros(8));

  RunResult r;
  r.processed = engine.metrics().processed_events();
  r.busy = engine.metrics().core_busy_micros();
  const Histogram lat = engine.AggregateSwmLatency();
  r.lat_count = lat.count();
  r.lat_mean = lat.mean();
  r.lat_min = lat.min();
  r.lat_max = lat.max();
  r.lat_p50 = lat.Percentile(50);
  r.lat_p99 = lat.Percentile(99);
  r.slowdown = engine.MeanSlowdown();
  for (int i = 0; i < 6; ++i) {
    r.results.push_back(engine.query(i).sink().results_received());
  }
  return r;
}

// Bit-identical, not approximately equal: both backends must execute the
// same slot schedule in the same virtual time, so every derived statistic
// (including the double-valued ones) matches exactly.
void ExpectIdentical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.processed, b.processed);
  EXPECT_EQ(a.busy, b.busy);
  EXPECT_EQ(a.lat_count, b.lat_count);
  EXPECT_EQ(a.lat_mean, b.lat_mean);
  EXPECT_EQ(a.lat_min, b.lat_min);
  EXPECT_EQ(a.lat_max, b.lat_max);
  EXPECT_EQ(a.lat_p50, b.lat_p50);
  EXPECT_EQ(a.lat_p99, b.lat_p99);
  EXPECT_EQ(a.slowdown, b.slowdown);
  EXPECT_EQ(a.results, b.results);
}

TEST(ExecutorEquivalenceTest, BackendsMatchUnderRoundRobin) {
  const auto make = [] { return std::make_unique<RoundRobinPolicy>(); };
  ExpectIdentical(RunWith(ExecutorKind::kSequential, make),
                  RunWith(ExecutorKind::kThreads, make));
}

TEST(ExecutorEquivalenceTest, BackendsMatchUnderKlink) {
  const auto make = [] { return std::make_unique<KlinkPolicy>(); };
  ExpectIdentical(RunWith(ExecutorKind::kSequential, make),
                  RunWith(ExecutorKind::kThreads, make));
}

class ExecutorBackendTest : public ::testing::TestWithParam<ExecutorKind> {};

TEST_P(ExecutorBackendTest, EndToEndWindowResults) {
  EngineConfig config;
  config.num_cores = 2;
  config.executor = GetParam();
  Engine engine(config, std::make_unique<RoundRobinPolicy>());
  engine.AddQuery(CountQuery(0), SteadyFeed(500, 1));
  engine.RunFor(SecondsToMicros(10));
  EXPECT_GT(engine.query(0).sink().results_received(), 50);
  EXPECT_GT(engine.metrics().processed_events(), 4000);
}

TEST_P(ExecutorBackendTest, MoreQueriesThanSlotsAllProgress) {
  EngineConfig config;
  config.num_cores = 2;
  config.executor = GetParam();
  Engine engine(config, std::make_unique<RoundRobinPolicy>());
  for (int i = 0; i < 5; ++i) {
    engine.AddQuery(CountQuery(i), SteadyFeed(300, 30 + i));
  }
  engine.RunFor(SecondsToMicros(10));
  for (int i = 0; i < 5; ++i) {
    EXPECT_GT(engine.query(i).sink().results_received(), 0) << i;
  }
}

TEST_P(ExecutorBackendTest, IdleCyclesAreHarmless) {
  EngineConfig config;
  config.num_cores = 4;
  config.executor = GetParam();
  Engine engine(config, std::make_unique<RoundRobinPolicy>());
  engine.RunFor(SecondsToMicros(2));  // no queries deployed at all
  EXPECT_EQ(engine.metrics().processed_events(), 0);
  EXPECT_EQ(engine.metrics().core_busy_micros(), 0.0);
}

TEST_P(ExecutorBackendTest, RemoveQueryMidRunKeepsSurvivorsGoing) {
  EngineConfig config;
  config.num_cores = 2;
  config.executor = GetParam();
  Engine engine(config, std::make_unique<RoundRobinPolicy>());
  engine.AddQuery(CountQuery(0), SteadyFeed(500, 1));
  engine.AddQuery(CountQuery(1), SteadyFeed(500, 2));
  engine.RunFor(SecondsToMicros(6));
  const int64_t results_before = engine.query(0).sink().results_received();
  ASSERT_GT(results_before, 0);

  engine.RemoveQuery(0);
  engine.RunFor(SecondsToMicros(6));
  EXPECT_EQ(engine.query(0).sink().results_received(), results_before);
  EXPECT_GT(engine.query(1).sink().results_received(), results_before);
}

TEST_P(ExecutorBackendTest, SlotCountersMergeIntoEngineMetrics) {
  EngineConfig config;
  config.num_cores = 3;
  config.executor = GetParam();
  Engine engine(config, std::make_unique<RoundRobinPolicy>());
  for (int i = 0; i < 3; ++i) {
    engine.AddQuery(CountQuery(i), SteadyFeed(500, 10 + i));
  }
  engine.RunFor(SecondsToMicros(6));

  const Executor& ex = engine.executor();
  ASSERT_EQ(ex.num_slots(), 3);
  double busy = 0.0;
  int64_t processed = 0;
  for (int s = 0; s < ex.num_slots(); ++s) {
    busy += ex.context(s).busy_micros();
    processed += ex.context(s).processed_events();
  }
  EXPECT_EQ(processed, engine.metrics().processed_events());
  // Per-slot lifetime sums and per-cycle merged sums associate the doubles
  // differently; they agree to rounding, not bit-exactly.
  EXPECT_NEAR(busy, engine.metrics().core_busy_micros(),
              1e-6 * (1.0 + engine.metrics().core_busy_micros()));
  EXPECT_GT(processed, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ExecutorBackendTest,
    ::testing::Values(ExecutorKind::kSequential, ExecutorKind::kThreads),
    [](const ::testing::TestParamInfo<ExecutorKind>& param_info) {
      return std::string(ExecutorKindName(param_info.param));
    });

TEST(EngineConfigTest, RejectsNonPositiveCores) {
  EngineConfig config;
  config.num_cores = 0;
  const Status s = config.Validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("--cores"), std::string::npos) << s.message();
}

TEST(EngineConfigTest, RejectsNonPositiveCycleLength) {
  EngineConfig config;
  config.cycle_length = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(EngineConfigTest, RejectsResumeFractionOutsideUnitInterval) {
  EngineConfig low;
  low.backpressure_resume_fraction = 0.0;
  EXPECT_EQ(low.Validate().code(), StatusCode::kInvalidArgument);
  EngineConfig high;
  high.backpressure_resume_fraction = 1.5;
  EXPECT_EQ(high.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(EngineConfigTest, AcceptsDefaultConfig) {
  EXPECT_TRUE(EngineConfig().Validate().ok());
}

TEST(EngineConfigDeathTest, EngineAbortsOnInvalidConfig) {
  EngineConfig config;
  config.num_cores = 0;
  EXPECT_DEATH(Engine(config, std::make_unique<RoundRobinPolicy>()),
               "KLINK_CHECK_OK failed");
}

}  // namespace
}  // namespace klink
