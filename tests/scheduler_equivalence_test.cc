// Audited churn: every policy runs under KLINK_AUDIT=1 while queries
// detach, are removed and attach mid-run, so slot reuse and journal
// consumption are exercised. The engine's invariant auditor checks memory
// accounting, selection budgets, cycle stats and progress monotonicity
// every cycle, and the query fabric checks its own consistency on every
// mutation; either aborts on the first violation. A run that completes
// is the proof.
//
// A second test shows KLINK_AUDIT observation is side-effect-free: the
// audited and unaudited runs produce identical results.

#include <cctype>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/experiment.h"
#include "src/net/delay_model.h"
#include "src/query/pipeline_builder.h"
#include "src/runtime/engine.h"
#include "src/workloads/workload.h"

namespace klink {
namespace {

std::unique_ptr<Query> CountQuery(QueryId id,
                                  DurationMicros window = SecondsToMicros(1)) {
  PipelineBuilder b("count");
  b.Source("src", 5.0)
      .TumblingAggregate("w", 10.0, window, AggregationKind::kCount)
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

/// One engine run with mid-run churn. `audit` toggles KLINK_AUDIT before
/// policy/engine construction (both sample the env once, at construction).
std::tuple<int64_t, int64_t, int64_t> ChurnRun(PolicyKind kind, bool audit) {
  setenv("KLINK_AUDIT", audit ? "1" : "0", 1);
  EngineConfig config;
  config.num_cores = 4;
  Engine engine(config, MakePolicy(kind, KlinkPolicyConfig{}, /*seed=*/1234));

  std::vector<QueryId> ids;
  for (int q = 0; q < 6; ++q) {
    ids.push_back(engine.AddQuery(
        CountQuery(q, SecondsToMicros(1) + MillisToMicros(100 * q)),
        SteadyFeed(400.0 + 150.0 * q, /*seed=*/10 + q)));
  }
  engine.RunFor(SecondsToMicros(3));

  // Churn: one graceful drain, one hard remove, one live attach. The
  // freed slots get reused with bumped generations.
  engine.DetachQuery(ids[1]);
  engine.RemoveQuery(ids[2]);
  const QueryId late_a = engine.AddQuery(CountQuery(6), SteadyFeed(800, 99));
  const QueryId late_b = engine.AddQuery(CountQuery(7), SteadyFeed(600, 98));
  engine.RunFor(SecondsToMicros(3));

  EXPECT_FALSE(engine.IsActive(ids[2]));
  EXPECT_TRUE(engine.IsActive(late_a));
  EXPECT_TRUE(engine.IsActive(late_b));
  EXPECT_NE(late_a, ids[1]);  // reused slot, fresh generation: no alias
  EXPECT_NE(late_a, ids[2]);
  // 6 - 2 + 2 live, +1 while ids[1] still drains.
  EXPECT_GE(engine.num_queries(), 6);
  EXPECT_LE(engine.num_queries(), 7);
  EXPECT_GT(engine.metrics().processed_events(), 1000);

  int64_t results = 0;
  for (const QueryId id : ids) results += engine.query(id).sink().results_received();
  results += engine.query(late_a).sink().results_received();
  results += engine.query(late_b).sink().results_received();
  return {engine.metrics().processed_events(),
          engine.metrics().ingested_events(), results};
}

class AuditedChurnTest : public ::testing::TestWithParam<PolicyKind> {
 protected:
  void TearDown() override { unsetenv("KLINK_AUDIT"); }
};

// Completing this run under KLINK_AUDIT=1 proves the engine auditor and
// the fabric found no violation in any cycle.
TEST_P(AuditedChurnTest, AuditorAndFabricHoldUnderChurn) {
  const auto r = ChurnRun(GetParam(), /*audit=*/true);
  EXPECT_GT(std::get<0>(r), 0);
}

// Audit observation must be a pure read: identical results with it off.
TEST_P(AuditedChurnTest, AuditObservationIsSideEffectFree) {
  const auto audited = ChurnRun(GetParam(), /*audit=*/true);
  const auto plain = ChurnRun(GetParam(), /*audit=*/false);
  EXPECT_EQ(audited, plain);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, AuditedChurnTest,
    ::testing::Values(PolicyKind::kDefault, PolicyKind::kFcfs,
                      PolicyKind::kRoundRobin, PolicyKind::kHighestRate,
                      PolicyKind::kStreamBox, PolicyKind::kKlink,
                      PolicyKind::kKlinkNoMm),
    [](const ::testing::TestParamInfo<PolicyKind>& param) {
      // PolicyKindName output isn't identifier-safe ("Klink (w/o MM)").
      std::string name(PolicyKindName(param.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace klink
