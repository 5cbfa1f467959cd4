// Allowed-lateness equivalence, the subsystem's acceptance bar:
//
//  (a) lateness = 0 keeps the strict drop policy byte-identical: the run
//      is deterministic and genuinely drops late events under a delay
//      model whose tail exceeds the watermark lag.
//  (b) lateness > 0 with a horizon covering the delay tail converges to
//      the byte-identical results_hash of an *in-order* delivery of the
//      same events — across both executor backends and shard counts
//      {unsharded, 1, 4}, with the invariant auditor on.
//  (c) a SIGKILL mid-run + --restore + client replay leaves the converged
//      hash of a lateness-enabled networked run byte-identical to an
//      uninterrupted baseline (retained panes, correction bookkeeping and
//      the sink's converging log all live in checkpointed state).
//  (d) at workload scale, under the heavy-tailed Pareto delay, a longer
//      horizon accepts more late events and drops fewer, emits matched
//      corrections and costs retained-pane memory, and the refire debt
//      Klink prices into slack is real work that flushes as corrections.
//
// The in-process runs of (a) and (b) are driven to full drain so the
// comparison covers the complete converged output, not a
// backlog-dependent prefix.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/types.h"
#include "src/harness/experiment.h"
#include "src/net/delay_model.h"
#include "src/net/loadgen.h"
#include "src/operators/filter_operator.h"
#include "src/query/pipeline_builder.h"
#include "src/runtime/engine.h"
#include "src/runtime/event_feed.h"
#include "src/runtime/snapshot.h"
#include "src/workloads/workload.h"
#include "src/workloads/ysb.h"
#include "tests/support/klink_run_process.h"

namespace klink {
namespace {

// ---------------------------------------------------------------------------
// In-process legs (a) and (b)

constexpr TimeMicros kFeedCutoff = SecondsToMicros(4);
constexpr double kEventsPerSecond = 4000.0;
constexpr DurationMicros kWindow = MillisToMicros(800);
/// Delays up to 120 ms against a 30 ms watermark lag: a large fraction of
/// events arrives behind the watermark. 200 ms of allowed lateness covers
/// the whole tail (max late amount = 120 - 30 = 90 ms), so the converged
/// output must equal in-order delivery exactly.
constexpr DurationMicros kMaxDelay = MillisToMicros(120);
constexpr DurationMicros kWatermarkLag = MillisToMicros(30);
constexpr DurationMicros kLateness = MillisToMicros(200);

/// Delivers only data elements with event_time <= cutoff and stops the
/// feed entirely (watermarks included) one second later. Cutting by
/// *event time* — not ingest time — makes a delayed run and an in-order
/// run of the same seed aggregate the identical event set and fire the
/// identical pane set, so their converged outputs are comparable.
class CutoffFeed final : public EventFeed {
 public:
  CutoffFeed(std::unique_ptr<EventFeed> inner, TimeMicros cutoff)
      : inner_(std::move(inner)),
        cutoff_(cutoff),
        hard_stop_(cutoff + SecondsToMicros(1)) {}

  void PollUpTo(TimeMicros now, int64_t max_bytes,
                std::vector<FeedElement>* out) override {
    std::vector<FeedElement> tmp;
    inner_->PollUpTo(std::min(now, hard_stop_), max_bytes, &tmp);
    for (FeedElement& el : tmp) {
      if (el.event.is_data() && el.event.event_time > cutoff_) continue;
      out->push_back(el);
    }
  }
  int64_t generated_events() const override {
    return inner_->generated_events();
  }

 private:
  std::unique_ptr<EventFeed> inner_;
  TimeMicros cutoff_;
  TimeMicros hard_stop_;
};

/// Source -> filter -> keyed tumbling aggregate -> sink, aggregate sharded
/// when `shards` > 0, every windowed operator and the sink carrying
/// `lateness`. The aggregation is kCount — an order-insensitive fold —
/// because byte-identical convergence to in-order delivery is only defined
/// for folds where accumulation order cannot perturb the result (double
/// addition of arbitrary values is not associative, so a kSum pane
/// corrected out of order may differ from the in-order sum in the last
/// ulp while being equally valid).
std::unique_ptr<Query> MakeQuery(int shards, DurationMicros lateness) {
  PipelineBuilder b("lateness-eq");
  b.SetAllowedLateness(lateness);
  BuilderStream head =
      b.Source("src", 0.5).Filter("keep", 0.3,
                                  FilterOperator::HashPassRate(0.8), 0.8);
  if (shards > 0) {
    head = head.ShardedTumblingAggregate("keyed-count", 40.0, kWindow,
                                         AggregationKind::kCount,
                                         ShardSpec{shards, shards});
  } else {
    head = head.TumblingAggregate("keyed-count", 40.0, kWindow,
                                  AggregationKind::kCount);
  }
  head.Sink("out", 0.5);
  return b.Build(/*id=*/0);
}

std::unique_ptr<EventFeed> MakeFeed(bool delayed) {
  SourceSpec spec;
  spec.events_per_second = kEventsPerSecond;
  spec.key_cardinality = 64;
  spec.watermark_period = MillisToMicros(250);
  spec.watermark_lag = kWatermarkLag;
  auto delay = delayed ? std::make_unique<UniformDelay>(0, kMaxDelay)
                       : std::make_unique<UniformDelay>(0, 0);
  auto feed = std::make_unique<SyntheticFeed>(
      std::vector<SourceSpec>{spec}, std::move(delay), /*seed=*/5, 0);
  return std::make_unique<CutoffFeed>(std::move(feed), kFeedCutoff);
}

struct RunOutput {
  uint64_t hash = 0;
  int64_t results = 0;
  QueryLateMetrics late;
};

RunOutput RunOne(int shards, DurationMicros lateness, bool delayed,
                 ExecutorKind executor) {
  EngineConfig config;
  config.num_cores = 12;
  config.memory_capacity_bytes = 64ll << 20;
  config.executor = executor;
  Engine engine(config, MakePolicy(PolicyKind::kKlink, KlinkPolicyConfig{},
                                   /*seed=*/7));
  const QueryId id =
      engine.AddQuery(MakeQuery(shards, lateness), MakeFeed(delayed));

  // Run past the feed's hard stop so both runs see the full watermark
  // grid (the zero-delay run would otherwise have an empty queue at the
  // cutoff and never pull the final watermark).
  engine.RunUntil(kFeedCutoff + SecondsToMicros(1));
  const TimeMicros deadline = kFeedCutoff + SecondsToMicros(60);
  while (engine.query(id).QueuedEvents() > 0 && engine.now() < deadline) {
    engine.RunFor(SecondsToMicros(1));
  }
  EXPECT_EQ(engine.query(id).QueuedEvents(), 0)
      << "run did not drain (shards=" << shards << ")";

  RunOutput out;
  out.hash = engine.query(id).sink().results_hash();
  out.results = engine.query(id).sink().results_received();
  out.late = CollectQueryLateMetrics(engine.query(id));
  return out;
}

class LatenessEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override { setenv("KLINK_AUDIT", "1", 1); }
  void TearDown() override { unsetenv("KLINK_AUDIT"); }
};

TEST_F(LatenessEquivalenceTest, ZeroLatenessKeepsStrictDropPolicy) {
  // In-order reference: no delays, nothing late, complete output.
  const RunOutput reference = RunOne(/*shards=*/0, /*lateness=*/0,
                                     /*delayed=*/false,
                                     ExecutorKind::kSequential);
  ASSERT_GT(reference.results, 0);

  // Delayed + lateness=0: the strict policy genuinely drops late events
  // (fewer results than in-order) and stays deterministic run to run.
  const RunOutput a = RunOne(0, 0, /*delayed=*/true,
                             ExecutorKind::kSequential);
  const RunOutput b = RunOne(0, 0, /*delayed=*/true,
                             ExecutorKind::kSequential);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.late.late_accepted, 0);
  EXPECT_EQ(a.late.retractions_emitted, 0);
  EXPECT_LE(a.results, reference.results);
}

TEST_F(LatenessEquivalenceTest, ConvergedHashMatchesInOrderDelivery) {
  // The bar: delayed delivery + allowed lateness covering the delay tail
  // converges to the in-order run's byte-identical hash, at every
  // (executor, shard count).
  const RunOutput in_order = RunOne(/*shards=*/0, /*lateness=*/0,
                                    /*delayed=*/false,
                                    ExecutorKind::kSequential);
  ASSERT_GT(in_order.results, 0);

  for (const ExecutorKind executor :
       {ExecutorKind::kSequential, ExecutorKind::kThreads}) {
    for (const int shards : {0, 1, 4}) {
      const RunOutput got =
          RunOne(shards, kLateness, /*delayed=*/true, executor);
      EXPECT_EQ(got.hash, in_order.hash)
          << "shards=" << shards
          << " executor=" << ExecutorKindName(executor);
      EXPECT_EQ(got.results, in_order.results)
          << "shards=" << shards
          << " executor=" << ExecutorKindName(executor);
      // Scenario sanity: the run exercised the lateness machinery and the
      // horizon covered every late event.
      EXPECT_GT(got.late.late_accepted, 0);
      EXPECT_EQ(got.late.late_dropped_beyond_horizon, 0);
      EXPECT_GT(got.late.retractions_emitted, 0);
      EXPECT_EQ(got.late.retractions_emitted, got.late.retractions_received);
      EXPECT_EQ(got.late.unmatched_retractions, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Leg (c): SIGKILL + --restore over real processes and sockets, with
// allowed lateness and a delay tail exceeding the watermark lag. Modeled
// on recovery_test; the acceptance bar is the same byte-identical
// results_hash, now with retained panes and the converging sink log in
// the checkpointed state.

constexpr uint64_t kSeed = 1;
constexpr int kQueries = 2;
constexpr double kRate = 500.0;
constexpr TimeMicros kDuration = SecondsToMicros(6);
constexpr TimeMicros kPreCrashSafe = MillisToMicros(2500);
constexpr TimeMicros kPreCrashSent = MillisToMicros(3000);
constexpr DurationMicros kNetLateness = MillisToMicros(300);

std::unique_ptr<EventFeed> QueryFeed(uint64_t feed_seed) {
  YsbConfig wc;
  wc.events_per_second = kRate;
  wc.watermark_lag = MillisToMicros(50);
  // Delay tail (120 ms) well past the 50 ms lag: real late events cross
  // the wire; 300 ms of allowed lateness covers all of them.
  return MakeYsbFeed(wc, std::make_unique<UniformDelay>(0, kMaxDelay),
                     feed_seed, /*start_time=*/0);
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
      "--cores=2",
      "--memory-mb=64",
      "--seed=" + std::to_string(kSeed),
      "--executor=sequential",
      "--allowed-lateness-ms=" + std::to_string(kNetLateness / 1000),
      "--checkpoint-dir=" + checkpoint_dir,
      "--checkpoint-interval-ms=500",
  };
  if (restore) args.push_back("--restore");
  return args;
}

TEST(LatenessRecoveryTest, KillMidRunConvergesByteIdentical) {
  const std::vector<uint64_t> seeds = FeedSeeds(kSeed, kQueries);

  std::string baseline_hash;
  int64_t baseline_results = 0;
  {
    const std::string dir = MakeTempDir("lateness");
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
    baseline_hash = r.results_hash;
    baseline_results = r.results;
  }

  const std::string dir = MakeTempDir("lateness");
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

  ServerProc second =
      SpawnServer(ServerArgs(dir, port, /*restore=*/true));
  ASSERT_GT(second.port, 0);
  EXPECT_TRUE(second.restored);
  ASSERT_NO_FATAL_FAILURE(ReconnectAll(conns));
  SendSlice(feeds, conns, kDuration, /*send_bye=*/true, TestRetry());
  if (::testing::Test::HasFatalFailure()) return;
  const ServerResult r = WaitServer(second);
  ASSERT_EQ(r.exit_code, 0);

  // Crash + restore + replay is invisible in the converged output.
  EXPECT_EQ(r.results, baseline_results);
  EXPECT_EQ(r.results_hash, baseline_hash);
}

// ---------------------------------------------------------------------------
// Leg (d): what the horizon buys and costs. Four YSB queries x 3000 ev/s
// under the Pareto straggler delay, 2 cores, seed 7, 30 s, swept over
// allowed lateness {0, 100, 300, 1000} ms, plus the refire debt at 300 ms
// (DESIGN.md "Late data"). Each expectation names its check.

ExperimentConfig ParetoYsbConfig(DurationMicros lateness) {
  ExperimentConfig config;
  config.policy = PolicyKind::kKlink;
  config.workload = WorkloadKind::kYsb;
  config.delay = DelayKind::kPareto;
  config.num_queries = 4;
  config.events_per_second = 3000.0;
  config.duration = SecondsToMicros(30);
  config.deploy_spread = SecondsToMicros(1);
  config.warmup = SecondsToMicros(2);
  config.engine.num_cores = 2;
  config.seed = 7;
  config.allowed_lateness = lateness;
  return config;
}

int64_t Corrections(const ExperimentResult& r) {
  return r.late.retractions_emitted + r.late.updates_emitted;
}

TEST(LatenessSweepTest, ParetoHorizonSweepAndRefireDebt) {
  std::map<int64_t, ExperimentResult> at;  // by horizon in ms
  for (const int64_t ms : {0, 100, 300, 1000}) {
    at[ms] = RunExperiment(ParetoYsbConfig(MillisToMicros(ms)));
  }
  EXPECT_GT(at[1000].late.late_accepted, at[100].late.late_accepted)
      << "accepted_grows_with_horizon";
  EXPECT_GT(at[100].late.late_accepted, 0) << "accepted_grows_with_horizon";
  EXPECT_LT(at[1000].late.late_dropped_beyond_horizon,
            at[100].late.late_dropped_beyond_horizon)
      << "dropped_shrinks_with_horizon";
  EXPECT_GT(Corrections(at[300]), 0) << "corrections_emitted";
  EXPECT_GT(Corrections(at[1000]), 0) << "corrections_emitted";
  for (const auto& [ms, r] : at) {
    EXPECT_EQ(r.late.unmatched_retractions, 0)
        << "no_unmatched_retractions at " << ms << " ms";
    EXPECT_GT(r.estimator_predictions, 0)
        << "estimator_measured_under_pareto at " << ms << " ms";
  }
  EXPECT_GT(at[1000].peak_memory_bytes, at[0].peak_memory_bytes)
      << "retained_panes_cost_memory";

  // Refire debt: pending corrections priced at their downstream drain
  // cost, summed over queries each cycle. A drop from one cycle to the
  // next is debt that materialized as emitted corrections.
  double debt_sum = 0.0;
  double flushed = 0.0;
  double prev = 0.0;
  int64_t cycles = 0;
  const ExperimentResult debt_run = RunExperiment(
      ParetoYsbConfig(MillisToMicros(300)), [&](const RuntimeSnapshot& snap) {
        double debt = 0.0;
        for (const QueryInfo& q : snap.queries) {
          debt += q.whole.refire_debt_micros;
        }
        debt_sum += debt;
        if (debt < prev) flushed += prev - debt;
        prev = debt;
        ++cycles;
      });
  ASSERT_GT(cycles, 0);
  EXPECT_GT(debt_sum / static_cast<double>(cycles), 0.0)
      << "refire_debt_flushes_as_corrections";
  EXPECT_GT(flushed, 0.0) << "refire_debt_flushes_as_corrections";
  EXPECT_GT(Corrections(debt_run), 0) << "refire_debt_flushes_as_corrections";
}

}  // namespace
}  // namespace klink
