#include "src/runtime/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/event/event.h"
#include "src/klink/klink_policy.h"
#include "src/net/delay_model.h"
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

/// This process's OS threads per /proc/self/status, -1 without procfs.
/// With `want` >= 0, re-read for up to a second until the count equals
/// it: a joined thread can stay listed for a moment after join returns.
int OsThreads(int want) {
  int threads = -1;
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("Threads:", 0) == 0) threads = std::atoi(&line[8]);
    }
    if (want < 0 || threads == want || threads < 0) return threads;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return threads;
}

/// The OS threads `executor` owns: how many fewer the process runs once it
/// is destroyed. Counting on destruction leaves out helper threads a
/// runtime starts with the process's first thread (TSan's, say).
int OwnedThreads(std::unique_ptr<Executor> executor) {
  const int workers = executor->num_workers();
  const int with = OsThreads(-1);
  executor.reset();
  if (with < 0) return workers;  // no procfs: trust the count
  return with - OsThreads(with - workers);
}

int HostCpus() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

TEST(ExecutorTest, SequentialStartsNoThreadAndThePoolIsHostSized) {
  auto sequential = std::make_unique<Executor>(ExecutorKind::kSequential, 3);
  EXPECT_EQ(sequential->num_slots(), 3);
  EXPECT_EQ(sequential->num_workers(), 0);
  EXPECT_EQ(OwnedThreads(std::move(sequential)), 0);
  auto one_slot = std::make_unique<Executor>(ExecutorKind::kThreads, 1);
  EXPECT_EQ(one_slot->num_workers(), 0);
  EXPECT_EQ(OwnedThreads(std::move(one_slot)), 0);
  for (const int slots : {2, 3, 8, 16}) {
    SCOPED_TRACE("slots " + std::to_string(slots));
    auto pool = std::make_unique<Executor>(ExecutorKind::kThreads, slots);
    EXPECT_EQ(pool->num_slots(), slots);
    EXPECT_EQ(pool->num_workers(), std::min(slots, HostCpus()) - 1);
    EXPECT_EQ(OwnedThreads(std::move(pool)), std::min(slots, HostCpus()) - 1);
  }
}

/// source -> map -> sink with `events` data events queued at its source;
/// the map runs `transform` on each.
std::unique_ptr<Query> QueuedMapQuery(
    QueryId id, int events, MapOperator::TransformFn transform = nullptr) {
  PipelineBuilder b("map");
  b.Source("src", 1.0).Map("map", 3.0, std::move(transform)).Sink("out", 1.0);
  std::unique_ptr<Query> q = b.Build(id);
  for (int i = 0; i < events; ++i) {
    q->sources()[0]->input(0).Push(MakeDataEvent(i, i, i, 1.0));
  }
  return q;
}

struct SlotOutcome {
  double busy = 0.0;
  int64_t processed = 0;
  int64_t left_queued = 0;
};

TEST(ExecutorTest, WideGroupDrainsEachTaskOnItsOwnSlot) {
  // One equal-stage group of 16 tasks: more tasks than the host has
  // threads, so workers and the calling thread each claim several. Every
  // slot's query differs in length and budget, so a task drained on
  // another slot's context, or twice, shows in the per-slot counters.
  constexpr int kSlots = 16;
  const auto run = [](ExecutorKind kind, std::vector<SlotOutcome>* slots) {
    std::vector<std::unique_ptr<Query>> queries;
    std::vector<ExecutorTask> tasks;
    for (int i = 0; i < kSlots; ++i) {
      queries.push_back(QueuedMapQuery(i, 20 + 13 * i));
      tasks.push_back(ExecutorTask{queries.back().get(), 60.0 + 45.0 * i});
    }
    Executor executor(kind, kSlots);
    const CycleStats stats =
        executor.ExecuteCycle(tasks, 1.3, SecondsToMicros(1));
    for (int i = 0; i < kSlots; ++i) {
      const ExecutionContext& ctx = executor.context(i);
      // Run once: a second BeginCycle would have reset the cycle counters
      // below the lifetime ones.
      EXPECT_EQ(ctx.cycle_processed_events(), ctx.processed_events()) << i;
      EXPECT_EQ(ctx.cycle_busy_micros(), ctx.busy_micros()) << i;
      EXPECT_GT(ctx.cycle_processed_events(), 0) << i;
      slots->push_back(SlotOutcome{ctx.cycle_busy_micros(),
                                   ctx.cycle_processed_events(),
                                   queries[static_cast<size_t>(i)]
                                       ->QueuedEvents()});
    }
    return stats;
  };
  std::vector<SlotOutcome> sequential;
  std::vector<SlotOutcome> pooled;
  const CycleStats want = run(ExecutorKind::kSequential, &sequential);
  const CycleStats got = run(ExecutorKind::kThreads, &pooled);
  for (int i = 0; i < kSlots; ++i) {
    const size_t s = static_cast<size_t>(i);
    EXPECT_EQ(pooled[s].busy, sequential[s].busy) << "slot " << i;
    EXPECT_EQ(pooled[s].processed, sequential[s].processed) << "slot " << i;
    EXPECT_EQ(pooled[s].left_queued, sequential[s].left_queued)
        << "slot " << i;
  }
  EXPECT_EQ(got.busy_micros, want.busy_micros);
  EXPECT_EQ(got.processed_events, want.processed_events);
}

TEST(ExecutorTest, OneTaskGroupRunsOnTheCallingThread) {
  std::vector<std::thread::id> drained_on;
  std::unique_ptr<Query> q = QueuedMapQuery(0, 5, [&drained_on](Event&) {
    drained_on.push_back(std::this_thread::get_id());
  });
  Executor executor(ExecutorKind::kThreads, 4);
  EXPECT_EQ(executor.num_workers(), std::min(4, HostCpus()) - 1);
  const std::vector<ExecutorTask> tasks = {ExecutorTask{q.get(), 1e6}};
  EXPECT_EQ(executor.ExecuteCycle(tasks, 1.0, 0).processed_events, 15);
  ASSERT_EQ(drained_on.size(), 5u);
  for (const std::thread::id id : drained_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
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

TEST_P(ExecutorBackendTest, DetachQueryMidRunKeepsSurvivorsGoing) {
  EngineConfig config;
  config.num_cores = 2;
  config.executor = GetParam();
  Engine engine(config, std::make_unique<RoundRobinPolicy>());
  engine.AddQuery(CountQuery(0), SteadyFeed(500, 1));
  engine.AddQuery(CountQuery(1), SteadyFeed(500, 2));
  engine.RunFor(SecondsToMicros(6));
  ASSERT_GT(engine.query(0).sink().results_received(), 0);

  engine.DetachQuery(0);
  for (int i = 0; i < 50 && engine.IsActive(0); ++i) {
    engine.RunFor(config.cycle_length);
  }
  ASSERT_FALSE(engine.IsActive(0));
  const int64_t results_before = engine.query(0).sink().results_received();
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
