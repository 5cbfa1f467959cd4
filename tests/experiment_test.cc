#include "src/harness/experiment.h"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>

namespace klink {
namespace {

ExperimentConfig TinyConfig() {
  ExperimentConfig config;
  config.num_queries = 4;
  config.events_per_second = 300;
  config.duration = SecondsToMicros(25);
  config.warmup = SecondsToMicros(8);
  config.deploy_spread = SecondsToMicros(3);
  config.engine.num_cores = 2;
  return config;
}

TEST(ExperimentTest, NamesRoundTrip) {
  EXPECT_STREQ(PolicyKindName(PolicyKind::kKlink), "Klink");
  EXPECT_STREQ(PolicyKindName(PolicyKind::kKlinkNoMm), "Klink (w/o MM)");
  EXPECT_STREQ(WorkloadKindName(WorkloadKind::kLrb), "LRB");
  EXPECT_STREQ(DelayKindName(DelayKind::kZipf), "Zipf");
}

TEST(ExperimentTest, MakePolicyProducesAllKinds) {
  KlinkPolicyConfig kc;
  for (PolicyKind kind :
       {PolicyKind::kDefault, PolicyKind::kFcfs, PolicyKind::kRoundRobin,
        PolicyKind::kHighestRate, PolicyKind::kStreamBox, PolicyKind::kKlink,
        PolicyKind::kKlinkNoMm}) {
    auto policy = MakePolicy(kind, kc, 1);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), PolicyKindName(kind));
  }
}

TEST(ExperimentTest, WatermarkLagCoversDelayModel) {
  Rng rng(1);
  for (DelayKind kind : {DelayKind::kUniform, DelayKind::kZipf}) {
    auto model = MakeDelayModel(kind);
    const DurationMicros lag = WatermarkLagFor(kind);
    for (int i = 0; i < 5000; ++i) {
      EXPECT_LE(model->Sample(rng), lag) << DelayKindName(kind);
    }
  }
}

TEST(ExperimentTest, ProbeSeesEveryCycle) {
  ExperimentConfig config = TinyConfig();
  int cycles = 0;
  RunExperiment(config, [&cycles](const RuntimeSnapshot& snap) {
    ++cycles;
    EXPECT_EQ(snap.queries.size(), 4u);
  });
  // 25 s of 120 ms cycles.
  EXPECT_NEAR(cycles, 209, 3);
}

TEST(ExperimentTest, DeterministicForSeed) {
  auto run = [] {
    ExperimentConfig config = TinyConfig();
    config.policy = PolicyKind::kKlink;
    const ExperimentResult r = RunExperiment(config);
    return std::make_tuple(r.mean_latency_s, r.throughput_eps,
                           r.latency.count());
  };
  EXPECT_EQ(run(), run());
}

TEST(ExperimentTest, SeedChangesOutcome) {
  ExperimentConfig config = TinyConfig();
  const ExperimentResult a = RunExperiment(config);
  config.seed = 99;
  const ExperimentResult b = RunExperiment(config);
  EXPECT_NE(a.latency.count(), b.latency.count());
}

struct MatrixParam {
  PolicyKind policy;
  WorkloadKind workload;
};

class ExperimentMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(ExperimentMatrixTest, ProducesOutputAndSaneMetrics) {
  ExperimentConfig config = TinyConfig();
  config.policy = GetParam().policy;
  config.workload = GetParam().workload;
  if (config.workload == WorkloadKind::kLrb) config.events_per_second = 100;
  const ExperimentResult r = RunExperiment(config);
  EXPECT_GT(r.latency.count(), 0) << "no SWMs reached the sinks";
  EXPECT_GT(r.mean_latency_s, 0.0);
  EXPECT_LE(r.p50_latency_s, r.p99_latency_s);
  EXPECT_GT(r.throughput_eps, 0.0);
  EXPECT_GE(r.mean_cpu_utilization, 0.0);
  EXPECT_LE(r.mean_cpu_utilization, 1.0);
  EXPECT_GT(r.slowdown, 0.0);
  EXPECT_FALSE(r.samples.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesAllWorkloads, ExperimentMatrixTest,
    ::testing::Values(
        MatrixParam{PolicyKind::kDefault, WorkloadKind::kYsb},
        MatrixParam{PolicyKind::kFcfs, WorkloadKind::kYsb},
        MatrixParam{PolicyKind::kRoundRobin, WorkloadKind::kYsb},
        MatrixParam{PolicyKind::kHighestRate, WorkloadKind::kYsb},
        MatrixParam{PolicyKind::kStreamBox, WorkloadKind::kYsb},
        MatrixParam{PolicyKind::kKlink, WorkloadKind::kYsb},
        MatrixParam{PolicyKind::kKlinkNoMm, WorkloadKind::kYsb},
        MatrixParam{PolicyKind::kDefault, WorkloadKind::kLrb},
        MatrixParam{PolicyKind::kKlink, WorkloadKind::kLrb},
        MatrixParam{PolicyKind::kDefault, WorkloadKind::kNyt},
        MatrixParam{PolicyKind::kKlink, WorkloadKind::kNyt}));

TEST(ExperimentTest, RunRepeatedAggregatesAndBoundsCi) {
  ExperimentConfig config = TinyConfig();
  config.policy = PolicyKind::kKlink;
  const RepeatedResult agg = RunRepeated(config, 3);
  EXPECT_EQ(agg.runs, 3);
  ASSERT_EQ(agg.results.size(), 3u);
  // The aggregate mean lies within the per-run extremes.
  double lo = agg.results[0].mean_latency_s, hi = lo;
  for (const ExperimentResult& r : agg.results) {
    lo = std::min(lo, r.mean_latency_s);
    hi = std::max(hi, r.mean_latency_s);
  }
  EXPECT_GE(agg.mean_latency_s, lo);
  EXPECT_LE(agg.mean_latency_s, hi);
  EXPECT_GE(agg.latency_ci95_s, 0.0);
  EXPECT_LE(agg.latency_ci95_s, (hi - lo) * 1.96 + 1e-12);
  EXPECT_GT(agg.throughput_eps, 0.0);
}

TEST(ExperimentTest, RunRepeatedSingleRunHasNoCi) {
  ExperimentConfig config = TinyConfig();
  const RepeatedResult agg = RunRepeated(config, 1);
  EXPECT_EQ(agg.runs, 1);
  EXPECT_DOUBLE_EQ(agg.latency_ci95_s, 0.0);
}

// The modeled evaluator cost (Fig. 9d) charges every query in every cycle,
// ready or not, and each memory-mode cycle once. Both runs are pinned to
// their values: the second deploys queries until 30 s, so some sit idle
// in the measured window, and its 200 KB cap puts Klink in memory mode
// there. Charging only ready queries, or memory-mode cycles twice, moves
// its overhead.
TEST(ExperimentTest, KlinkReportsEstimatorAccuracy) {
  ExperimentConfig config = TinyConfig();
  config.policy = PolicyKind::kKlink;
  config.duration = SecondsToMicros(60);
  const ExperimentResult r = RunExperiment(config);
  EXPECT_EQ(r.estimator_predictions, 58);
  EXPECT_GT(r.estimator_accuracy, 0.5);
  EXPECT_DOUBLE_EQ(r.scheduler_overhead, 0.019318647729346071);

  config.deploy_spread = SecondsToMicros(30);
  config.engine.memory_capacity_bytes = 200000;
  const ExperimentResult idle_and_mm = RunExperiment(config);
  EXPECT_EQ(idle_and_mm.estimator_predictions, 33);
  EXPECT_DOUBLE_EQ(idle_and_mm.scheduler_overhead, 0.023682025778745563);
}

/// One bad input a tool's flag validation rejects, and the flag its
/// message must name.
struct BadInput {
  const char* name;
  const char* args;
  const char* flag;
};

std::string BadInputName(const ::testing::TestParamInfo<BadInput>& info) {
  return info.param.name;
}

/// Runs `cmd` through the shell, capturing stdout and stderr into `out`;
/// returns the wait status.
int RunCommand(const std::string& cmd, std::string* out) {
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) *out += buf;
  return pclose(pipe);
}

// Bad input is a usage error, never an abort or a hang: exit status 2,
// with the validation message (the first line, before the usage text)
// naming the flag. timeout(1) turns a tool that serves or waits instead
// into a failing exit status.
void ExpectUsageError(const char* tool, const BadInput& input) {
  std::string out;
  const int status = RunCommand(
      std::string("timeout 10 ").append(tool).append(" ").append(input.args),
      &out);
  ASSERT_TRUE(WIFEXITED(status)) << out;
  EXPECT_EQ(WEXITSTATUS(status), 2) << out;
  EXPECT_NE(out.substr(0, out.find('\n')).find(input.flag),
            std::string::npos)
      << out;
}

class KlinkRunBadInputTest : public ::testing::TestWithParam<BadInput> {};

TEST_P(KlinkRunBadInputTest, ExitsTwoNamingTheFlag) {
  ExpectUsageError(KLINK_RUN_PATH, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, KlinkRunBadInputTest,
    ::testing::Values(
        BadInput{"Queries", "--queries=0", "--queries"},
        BadInput{"Cores", "--cores=0", "--cores"},
        BadInput{"Rate", "--rate=-5", "--rate"},
        BadInput{"RateNotANumber", "--rate=abc", "--rate"},
        BadInput{"QueriesFractional", "--queries=2.5", "--queries"},
        BadInput{"CoresTrailingGarbage", "--cores=4x", "--cores"},
        BadInput{"MemoryMb", "--memory-mb=0", "--memory-mb"},
        // 2^43 MB is 2^63 bytes, one past the int64 range.
        BadInput{"MemoryMbOverflow", "--memory-mb=8796093022208",
                 "--memory-mb"},
        // the default warm-up is 30 s
        BadInput{"DurationBelowWarmup", "--duration=20", "--duration"},
        BadInput{"NegativeWarmup", "--warmup=-1", "--warmup"},
        BadInput{"ConfidenceZero", "--confidence=0", "--confidence"},
        BadInput{"ConfidenceAboveOne", "--confidence=1.5", "--confidence"},
        BadInput{"ConfidenceNan", "--confidence=nan", "--confidence"},
        BadInput{"ListenConfidence", "--listen=0 --confidence=-1",
                 "--confidence"},
        BadInput{"ListenQueries", "--listen=0 --queries=0", "--queries"},
        BadInput{"ListenPortOutOfRange", "--listen=99999", "--listen"},
        BadInput{"ListenIngestBudget", "--listen=0 --ingest-budget-kb=0",
                 "--ingest-budget-kb"},
        BadInput{"ListenNegativeIngestBudget",
                 "--listen=0 --ingest-budget-kb=-4", "--ingest-budget-kb"},
        BadInput{"ListenCheckpointInterval",
                 "--listen=0 --checkpoint-dir=bad-input-ckpt "
                 "--checkpoint-interval-ms=0",
                 "--checkpoint-interval-ms"},
        BadInput{"ListenNegativeCheckpointInterval",
                 "--listen=0 --checkpoint-dir=bad-input-ckpt "
                 "--checkpoint-interval-ms=-5",
                 "--checkpoint-interval-ms"},
        BadInput{"ListenCheckpointDirWithoutParent",
                 "--listen=0 --checkpoint-dir=/nonexistent/a/b",
                 "--checkpoint-dir"},
        // klink_run's own path names a regular file, not a directory.
        BadInput{"ListenCheckpointDirIsFile",
                 "--listen=0 --checkpoint-dir=" KLINK_RUN_PATH,
                 "--checkpoint-dir"}),
    BadInputName);

class LoadgenBadInputTest : public ::testing::TestWithParam<BadInput> {};

TEST_P(LoadgenBadInputTest, ExitsTwoNamingTheFlag) {
  ExpectUsageError(LOADGEN_PATH, GetParam());
}

// Nothing listens on the port: validation must reject the input before
// loadgen builds a feed or dials.
INSTANTIATE_TEST_SUITE_P(
    Inputs, LoadgenBadInputTest,
    ::testing::Values(
        BadInput{"ZeroRate", "--port=1 --rate=0", "--rate"},
        BadInput{"NegativeRate", "--port=1 --rate=-5", "--rate"},
        BadInput{"RateNotANumber", "--port=1 --rate=abc", "--rate"},
        BadInput{"Queries", "--port=1 --queries=0", "--queries"},
        BadInput{"QueriesFractional", "--port=1 --queries=1.5", "--queries"},
        BadInput{"PortOutOfRange", "--port=99999", "--port"},
        BadInput{"Duration", "--port=1 --duration=0", "--duration"},
        BadInput{"Speed", "--port=1 --speed=-1", "--speed"},
        BadInput{"MaxRetries", "--port=1 --max-retries=-1",
                 "--max-retries"}),
    BadInputName);

// A run that completes no window reports that instead of latency 0.000
// and slowdown 0. This overloaded configuration pins memory at its 16 MB
// ceiling and completes none.
TEST(KlinkRunReportTest, NoCompletedWindowsSaysSo) {
  std::string out;
  const int status = RunCommand(
      std::string(KLINK_RUN_PATH)
          .append(" --workload=ysb --queries=4 --rate=12000 --duration=35"),
      &out);
  ASSERT_TRUE(WIFEXITED(status)) << out;
  EXPECT_EQ(WEXITSTATUS(status), 0) << out;
  for (const char* row : {"mean latency (s)", "p50 latency (s)",
                          "p90 latency (s)", "p99 latency (s)", "slowdown"}) {
    const size_t at = out.find(row);
    ASSERT_NE(at, std::string::npos) << row << "\n" << out;
    const std::string line = out.substr(at, out.find('\n', at) - at);
    EXPECT_NE(line.find("n/a (no completed windows)"), std::string::npos)
        << line;
  }
}

}  // namespace
}  // namespace klink
