#include "src/harness/experiment.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "tests/support/klink_run_process.h"

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

// klink_run and loadgen parse, and the listen server's feed hint prints,
// the same lowercase spellings; the report names do not parse.
TEST(ExperimentTest, FlagSpellingsRoundTrip) {
  for (const WorkloadKind kind :
       {WorkloadKind::kYsb, WorkloadKind::kLrb, WorkloadKind::kNyt}) {
    WorkloadKind parsed = WorkloadKind::kYsb;
    EXPECT_TRUE(ParseWorkloadFlag(WorkloadFlagName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
    EXPECT_FALSE(ParseWorkloadFlag(WorkloadKindName(kind), &parsed));
  }
  for (const DelayKind kind :
       {DelayKind::kUniform, DelayKind::kZipf, DelayKind::kPareto}) {
    DelayKind parsed = DelayKind::kUniform;
    EXPECT_TRUE(ParseDelayFlag(DelayFlagName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
    EXPECT_FALSE(ParseDelayFlag(DelayKindName(kind), &parsed));
  }
  EXPECT_STREQ(WorkloadFlagName(WorkloadKind::kNyt), "nyt");
  EXPECT_STREQ(DelayFlagName(DelayKind::kPareto), "pareto");
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
/// message must name. A `CKPT` in `args` stands for a fresh path the tool
/// must not create.
struct BadInput {
  const char* name;
  const char* args;
  const char* flag;
};

/// Names a parameterized case after its parameter's `name`.
template <typename Param>
std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
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
// with the validation message (the first line) naming the flag, then the
// usage text. timeout(1) turns a tool that serves or waits instead into a
// failing exit status. Validation precedes every side effect, so the
// checkpoint directory a rejected run names is never created.
void ExpectUsageError(const char* tool, const BadInput& input) {
  std::string args = input.args;
  std::string dir;  // fresh and empty; CKPT names a path inside it
  if (const size_t at = args.find("CKPT"); at != std::string::npos) {
    dir = MakeTempDir("bad_input");
    args.replace(at, 4, dir + "/ckpt");
  }
  std::string out;
  const int status = RunCommand(
      std::string("timeout 10 ").append(tool).append(" ").append(args), &out);
  ASSERT_TRUE(WIFEXITED(status)) << out;
  EXPECT_EQ(WEXITSTATUS(status), 2) << out;
  EXPECT_NE(out.substr(0, out.find('\n')).find(input.flag),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("usage: "), std::string::npos) << out;
  // rmdir succeeds only on an empty directory.
  EXPECT_TRUE(dir.empty() || ::rmdir(dir.c_str()) == 0)
      << dir << "/ckpt was created";
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
        // A feed would materialize ~1e14 elements per cycle and abort in
        // std::bad_alloc; the rate is refused before any is generated.
        BadInput{"RateAboveCeiling",
                 "--rate=1e15 --queries=4 --duration=30 --warmup=25",
                 "--rate"},
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
        // The feed hint would print a command loadgen rejects.
        BadInput{"ListenRate", "--listen=0 --rate=0", "--rate"},
        BadInput{"ListenRateAboveCeiling", "--listen=0 --rate=1e15",
                 "--rate"},
        BadInput{"ListenDuration", "--listen=0 --duration=0", "--duration"},
        BadInput{"ListenPortOutOfRange", "--listen=99999", "--listen"},
        BadInput{"ListenIngestBudget", "--listen=0 --ingest-budget-kb=0",
                 "--ingest-budget-kb"},
        BadInput{"ListenNegativeIngestBudget",
                 "--listen=0 --ingest-budget-kb=-4", "--ingest-budget-kb"},
        BadInput{"ListenCheckpointInterval",
                 "--listen=0 --checkpoint-dir=CKPT "
                 "--checkpoint-interval-ms=0",
                 "--checkpoint-interval-ms"},
        BadInput{"ListenNegativeCheckpointInterval",
                 "--listen=0 --checkpoint-dir=CKPT "
                 "--checkpoint-interval-ms=-5",
                 "--checkpoint-interval-ms"},
        BadInput{"ListenCheckpointDirWithoutParent",
                 "--listen=0 --checkpoint-dir=/nonexistent/a/b",
                 "--checkpoint-dir"},
        // klink_run's own path names a regular file, not a directory.
        BadInput{"ListenCheckpointDirIsFile",
                 "--listen=0 --checkpoint-dir=" KLINK_RUN_PATH,
                 "--checkpoint-dir"},
        BadInput{"ListenReshardCountTrailingGarbage",
                 "--listen=0 --checkpoint-dir=CKPT --reshard=4x@2",
                 "--reshard"},
        BadInput{"ListenReshardSecondsNotANumber",
                 "--listen=0 --checkpoint-dir=CKPT --reshard=2@abc",
                 "--reshard"},
        BadInput{"ListenReshardCountZero",
                 "--listen=0 --checkpoint-dir=CKPT --reshard=0@2",
                 "--reshard"},
        BadInput{"ListenRestoreWithoutCheckpointDir", "--listen=0 --restore",
                 "--restore"},
        BadInput{"ListenHotReshardWithoutCheckpointDir",
                 "--listen=0 --hot-reshard", "--hot-reshard"},
        // Only indexes below --queries attach, so the lockstep loop would
        // wait for the fifth tenant forever.
        BadInput{"ListenExpectTenantsAboveQueries",
                 "--listen=0 --lockstep --dynamic-attach --queries=2 "
                 "--expect-tenants=5",
                 "--expect-tenants"},
        BadInput{"ListenExpectTenantsNegative",
                 "--listen=0 --expect-tenants=-1", "--expect-tenants"},
        // LRB builds no shard region, so shard flags would be ignored.
        BadInput{"ListenLrbShards", "--listen=0 --workload=lrb --shards=2",
                 "--shards"},
        BadInput{"ListenLrbMaxShards",
                 "--listen=0 --workload=lrb --max-shards=4", "--max-shards"},
        // The server has no warm-up cut and writes no CSV report.
        BadInput{"ListenWarmup", "--listen=0 --warmup=5", "--warmup"},
        BadInput{"ListenCsv", "--listen=0 --csv=CKPT", "--csv"},
        // A short valid run around each, so a tool that ignores the
        // input exits 0 quickly.
        BadInput{"UnknownFlag", "--bogus-flag=7 --queries=1 --duration=3 "
                                "--warmup=1",
                 "--bogus-flag"},
        BadInput{"BoolNotABool", "--lockstep=maybe --queries=1 "
                                 "--duration=3 --warmup=1",
                 "--lockstep"},
        BadInput{"PositionalArgument", "extra --queries=1 --duration=3 "
                                       "--warmup=1",
                 "extra"},
        BadInput{"LrbShards", "--workload=lrb --shards=2 --queries=2 "
                              "--rate=100 --duration=3 --warmup=1",
                 "--shards"},
        BadInput{"LrbMaxShards", "--workload=lrb --max-shards=2 --queries=1 "
                                 "--duration=3 --warmup=1",
                 "--max-shards"},
        // One above the ceiling (kMaxShards = 64).
        BadInput{"ShardsAboveCeiling",
                 "--shards=65 --queries=1 --duration=3 --warmup=1",
                 "--shards"},
        BadInput{"MaxShardsAboveCeiling",
                 "--max-shards=65 --queries=1 --duration=3 --warmup=1",
                 "--max-shards"},
        // Listen-only flags in an in-process run, valid values included.
        BadInput{"IngestBudgetWithoutListen",
                 "--ingest-budget-kb=64 --queries=1 --duration=3 --warmup=1",
                 "--ingest-budget-kb"},
        BadInput{"LockstepWithoutListen",
                 "--lockstep --queries=1 --duration=3 --warmup=1",
                 "--lockstep"},
        BadInput{"DynamicAttachWithoutListen",
                 "--dynamic-attach --queries=1 --duration=3 --warmup=1",
                 "--dynamic-attach"},
        BadInput{"ExpectTenantsWithoutListen",
                 "--expect-tenants=99 --queries=1 --duration=3 --warmup=1",
                 "--expect-tenants"},
        BadInput{"CheckpointDirWithoutListen",
                 "--checkpoint-dir=CKPT --queries=1 --duration=3 --warmup=1",
                 "--checkpoint-dir"},
        BadInput{"CheckpointIntervalWithoutListen",
                 "--checkpoint-interval-ms=500 --queries=1 --duration=3 "
                 "--warmup=1",
                 "--checkpoint-interval-ms"},
        BadInput{"RestoreWithoutListen",
                 "--restore --queries=1 --duration=3 --warmup=1",
                 "--restore"},
        BadInput{"ReshardWithoutListen",
                 "--reshard=bogus --queries=1 --duration=3 --warmup=1",
                 "--reshard"},
        BadInput{"HotReshardWithoutListen",
                 "--hot-reshard --queries=1 --duration=3 --warmup=1",
                 "--hot-reshard"}),
    ParamName<BadInput>);

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
        BadInput{"RateAboveCeiling", "--port=1 --rate=1e15", "--rate"},
        BadInput{"Queries", "--port=1 --queries=0", "--queries"},
        BadInput{"QueriesFractional", "--port=1 --queries=1.5", "--queries"},
        BadInput{"PortOutOfRange", "--port=99999", "--port"},
        BadInput{"Duration", "--port=1 --duration=0", "--duration"},
        BadInput{"Speed", "--port=1 --speed=-1", "--speed"},
        BadInput{"MaxRetries", "--port=1 --max-retries=-1",
                 "--max-retries"},
        BadInput{"DelayParetoTrailingGarbage",
                 "--port=1 --delay-pareto=1.5x,20", "--delay-pareto"},
        BadInput{"UnknownFlag", "--port=1 --bogus=1", "--bogus"},
        BadInput{"PositionalArgument", "--port=1 extra", "extra"}),
    ParamName<BadInput>);

/// Spawns a listen-mode klink_run with `args` and feeds it the loadgen
/// command its banner hints, plus --speed=0 (blast replay, which the
/// --lockstep server makes deterministic). A loadgen failure kills the
/// server, which could otherwise wait for its tenants forever, and fails
/// the test.
ServerResult ServeHintedBlast(const std::vector<std::string>& args) {
  ServerProc server = SpawnServer(args);
  if (server.port == 0) {
    ADD_FAILURE() << "no listening banner";
    return WaitServer(server);
  }
  // The banner's next line: "  loadgen --port=... --seed=N".
  char line[512];
  std::string hint =
      std::fgets(line, sizeof(line), server.out) != nullptr ? line : "";
  const size_t at = hint.find("loadgen --port=");
  if (at == std::string::npos) {
    KillServer(server);
    ADD_FAILURE() << "no loadgen hint: " << hint;
    return ServerResult{};
  }
  hint = hint.substr(at + std::string("loadgen").size());
  hint.erase(hint.find_last_not_of('\n') + 1);
  const std::string cmd =
      std::string("timeout 60 ") + LOADGEN_PATH + hint + " --speed=0";
  std::string out;
  const int status = RunCommand(cmd, &out);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    KillServer(server);
    ADD_FAILURE() << cmd << "\n" << out;
    return ServerResult{};
  }
  return WaitServer(server);
}

/// A lockstep TCP run's pinned outcome for one workload, executor and
/// tenant mode.
struct TcpPin {
  const char* name;
  const char* workload;
  const char* executor;
  bool dynamic_attach;
  const char* results_hash;
  int64_t results;
};

class KlinkRunTcpPinTest : public ::testing::TestWithParam<TcpPin> {};

// The listen server's feed hint is a command loadgen accepts, with every
// flag the tenants' feeds depend on: fed exactly that command plus
// --speed=0, the server reproduces its pinned results. This pins LRB and
// NYT over TCP (the CI release job pins YSB), so the feed recipe of
// loadgen and the query recipe of klink_run cannot drift apart. Loadgen
// connects each tenant on its own thread, so one tenant's replay can end
// before the other connects. Neither server mode may end the run then: a
// closed-world server holds virtual time until every registered stream
// has finished, and a dynamic one until --expect-tenants=2 have attached.
TEST_P(KlinkRunTcpPinTest, HintedLoadgenReproducesPin) {
  const TcpPin& pin = GetParam();
  std::vector<std::string> args = {
      "--listen=0", "--lockstep", "--queries=2", "--rate=300",
      "--duration=20", "--seed=3", std::string("--workload=") + pin.workload,
      std::string("--executor=") + pin.executor};
  if (pin.dynamic_attach) {
    args.push_back("--dynamic-attach");
    args.push_back("--expect-tenants=2");
  }
  const ServerResult r = ServeHintedBlast(args);
  if (::testing::Test::HasFailure()) return;
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.results_hash, pin.results_hash) << r.output;
  EXPECT_EQ(r.results, pin.results) << r.output;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, KlinkRunTcpPinTest,
    ::testing::Values(
        TcpPin{"LrbSequential", "lrb", "sequential", true, "433c848d9337c752",
               1003},
        TcpPin{"LrbThreads", "lrb", "threads", true, "433c848d9337c752", 1003},
        TcpPin{"NytSequential", "nyt", "sequential", true, "6941dd10a77b59bb",
               6849},
        TcpPin{"NytThreads", "nyt", "threads", true, "6941dd10a77b59bb", 6849},
        TcpPin{"YsbClosedWorldSequential", "ysb", "sequential", false,
               "0917707864d3479e", 1164},
        TcpPin{"YsbClosedWorldThreads", "ysb", "threads", false,
               "0917707864d3479e", 1164}),
    ParamName<TcpPin>);

class KlinkRunRestoreMismatchTest
    : public ::testing::TestWithParam<BadInput> {};

// A --restore whose run does not build the checkpoint's queries is bad
// input: exit 2 with a message naming the setting, before the server
// listens, instead of an abort. The checkpoint is a real one, written by
// a lockstep run of 3 YSB queries.
TEST_P(KlinkRunRestoreMismatchTest, ExitsTwoNamingTheSetting) {
  const std::string dir = MakeTempDir("restore_mismatch");
  const std::vector<std::string> run = {
      "--listen=0", "--lockstep", "--rate=300", "--duration=3", "--seed=1",
      "--checkpoint-interval-ms=500", "--checkpoint-dir=" + dir};
  std::vector<std::string> written = run;
  written.push_back("--queries=3");
  const ServerResult w = ServeHintedBlast(written);
  if (::testing::Test::HasFailure()) return;
  ASSERT_EQ(w.exit_code, 0) << w.output;
  ASSERT_GT(w.durable_epoch, 0u) << w.output;

  std::string cmd = std::string("timeout 10 ") + KLINK_RUN_PATH;
  for (const std::string& arg : run) cmd += " " + arg;
  std::string out;
  const int status =
      RunCommand(cmd + " --restore " + GetParam().args, &out);
  ASSERT_TRUE(WIFEXITED(status)) << out;
  EXPECT_EQ(WEXITSTATUS(status), 2) << out;
  const size_t at = out.find("--restore: ");
  ASSERT_NE(at, std::string::npos) << out;
  EXPECT_NE(out.substr(at, out.find('\n', at) - at).find(GetParam().flag),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("listening on"), std::string::npos) << out;
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, KlinkRunRestoreMismatchTest,
    ::testing::Values(
        // 7 operators per NYT query against YSB's 5.
        BadInput{"OtherWorkload", "--queries=3 --workload=nyt", "--workload"},
        BadInput{"FewerQueries", "--queries=2", "--queries"},
        // Dynamic tenants re-attach by index; index 2 lies outside [0, 2).
        BadInput{"DynamicTenantOutsideQueries",
                 "--queries=2 --dynamic-attach", "--queries"}),
    ParamName<BadInput>);

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

// A feed above what the engine drains holds back what the byte budget
// refuses and generates no further until the engine takes it, so a run at
// the rate ceiling stays in bounded memory instead of ending in
// std::bad_alloc (it held every refused element: past 1 GB, where a 1 GB
// address-space limit aborted it). The bound leaves room for a sanitizer's
// shadow memory.
TEST(KlinkRunReportTest, RateAboveDrainRateStaysInBoundedMemory) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(devnull, STDERR_FILENO);
    ::execl(KLINK_RUN_PATH, KLINK_RUN_PATH, "--rate=1e6", "--queries=1",
            "--duration=30", "--warmup=25", "--policy=fcfs", nullptr);
    ::_exit(127);
  }
  int status = 0;
  struct rusage usage {};
  ASSERT_EQ(::wait4(pid, &status, 0, &usage), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_LT(usage.ru_maxrss, 512 * 1024);  // KiB
}

// Queries deploy at uniform times within the first 20 s. A shorter
// in-process run warns on stderr how many of them never run; stdout, the
// report, stays as it was.
TEST(KlinkRunReportTest, WarnsWhenQueriesDeployAfterTheRun) {
  const std::string run = std::string(KLINK_RUN_PATH)
                              .append(" --queries=2 --duration=10 --warmup=0");
  std::string err;
  int status = RunCommand("(" + run + " >/dev/null)", &err);
  ASSERT_TRUE(WIFEXITED(status)) << err;
  EXPECT_EQ(WEXITSTATUS(status), 0) << err;
  EXPECT_NE(err.find("warning: 2 of 2 queries deploy at or after "
                     "--duration=10 s"),
            std::string::npos)
      << err;
  std::string out;
  status = RunCommand("(" + run + " 2>/dev/null)", &out);
  ASSERT_TRUE(WIFEXITED(status)) << out;
  EXPECT_EQ(out.find("warning"), std::string::npos) << out;
  EXPECT_NE(out.find("n/a (no completed windows)"), std::string::npos)
      << out;
}

TEST(KlinkRunReportTest, NoWarningWhenEveryQueryDeploysInTheRun) {
  // 25 s outlasts the 20 s deploy spread.
  std::string err;
  const int status = RunCommand(
      "(" +
          std::string(KLINK_RUN_PATH)
              .append(" --queries=2 --duration=25 --warmup=0 >/dev/null)"),
      &err);
  ASSERT_TRUE(WIFEXITED(status)) << err;
  EXPECT_EQ(WEXITSTATUS(status), 0) << err;
  EXPECT_EQ(err.find("warning"), std::string::npos) << err;
}

}  // namespace
}  // namespace klink
