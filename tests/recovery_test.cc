// Kill-mid-run crash recovery, end to end over real processes and sockets:
// a klink_run --listen server with barrier checkpoints armed is SIGKILLed
// between checkpoints, restarted with --restore, and fed the rest of the
// run by clients that reconnect and replay their unacked tails. The
// acceptance bar is exact: the interrupted run must print the
// byte-identical results_hash of an uninterrupted baseline, on every
// workload (YSB, LRB with its three source streams, NYT) and for both the
// sequential and the thread-pool executor.
//
// The server binary is driven the way an operator would drive it, through
// the fork/exec harness in tests/support/klink_run_process.h.

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/experiment.h"
#include "src/net/delay_model.h"
#include "src/net/loadgen.h"
#include "tests/support/klink_run_process.h"

namespace klink {
namespace {

constexpr uint64_t kSeed = 1;
constexpr int kQueries = 2;
constexpr double kRate = 500.0;
constexpr TimeMicros kDuration = SecondsToMicros(6);
/// Prefix delivered before the crash: far enough in for several 500 ms
/// checkpoint epochs to become durable.
constexpr TimeMicros kPreCrashSafe = MillisToMicros(2500);
/// Extra slice sent but (mostly) not yet durable when the kill lands — the
/// data the replay must win back.
constexpr TimeMicros kPreCrashSent = MillisToMicros(3000);

/// Query q's feed as loadgen replays it with --delay=none.
std::unique_ptr<EventFeed> QueryFeed(WorkloadKind workload, int q,
                                     uint64_t feed_seed) {
  TenantSpec tenant;
  tenant.workload = workload;
  tenant.events_per_second = kRate;
  tenant.watermark_lag = MillisToMicros(50);  // loadgen's --delay=none lag
  std::unique_ptr<EventFeed> feed;
  MakeTenant(tenant, q, /*query=*/nullptr, &feed,
             std::make_unique<ConstantDelay>(0), feed_seed,
             /*start_time=*/0);
  return feed;
}

/// Source streams per query: LRB joins three position-report streams.
int Sources(WorkloadKind workload) {
  return workload == WorkloadKind::kLrb ? 3 : 1;
}

/// The server's command line (argv after the program name).
std::vector<std::string> ServerArgs(WorkloadKind workload,
                                    const std::string& checkpoint_dir,
                                    const std::string& executor,
                                    uint16_t port, bool restore) {
  std::vector<std::string> args = {
      "--listen=" + std::to_string(port),
      "--lockstep",
      "--policy=fcfs",
      std::string("--workload=") + WorkloadFlagName(workload),
      "--queries=" + std::to_string(kQueries),
      "--rate=" + std::to_string(static_cast<long long>(kRate)),
      "--duration=" + std::to_string(kDuration / 1000000),
      "--cores=2",
      "--memory-mb=64",
      "--seed=" + std::to_string(kSeed),
      "--executor=" + executor,
      "--checkpoint-dir=" + checkpoint_dir,
      "--checkpoint-interval-ms=500",
  };
  if (restore) args.push_back("--restore");
  return args;
}

class RecoveryTest
    : public ::testing::TestWithParam<std::tuple<WorkloadKind, std::string>> {
};

TEST_P(RecoveryTest, KillMidRunIsByteIdentical) {
  const auto& [workload, executor] = GetParam();
  const std::vector<uint64_t> seeds = FeedSeeds(kSeed, kQueries);
  const auto make_feeds = [&] {
    std::vector<std::unique_ptr<EventFeed>> feeds;
    for (int q = 0; q < kQueries; ++q) {
      feeds.push_back(QueryFeed(workload, q, seeds[static_cast<size_t>(q)]));
    }
    return feeds;
  };

  // Uninterrupted baseline: same flags, same feeds, no crash.
  std::string baseline_hash;
  int64_t baseline_results = 0;
  {
    const std::string dir = MakeTempDir("recovery");
    ServerProc server = SpawnServer(ServerArgs(workload, dir, executor,
                                               /*port=*/0, /*restore=*/false));
    ASSERT_GT(server.port, 0);
    std::vector<std::unique_ptr<EventFeed>> feeds = make_feeds();
    std::vector<QueryClients> conns;
    ConnectAll(conns, kQueries, Sources(workload), server.port);
    if (::testing::Test::HasFatalFailure()) return;
    SendSlice(feeds, conns, kDuration, /*send_bye=*/true, RetryPolicy{});
    if (::testing::Test::HasFatalFailure()) return;
    const ServerResult r = WaitServer(server);
    ASSERT_EQ(r.exit_code, 0);
    ASSERT_GT(r.results, 0);
    ASSERT_FALSE(r.results_hash.empty());
    EXPECT_GE(r.durable_epoch, 2u);
    baseline_hash = r.results_hash;
    baseline_results = r.results;
  }

  // Interrupted run: deliver a prefix, wait for durable epochs, push a
  // little more past the durable frontier, then SIGKILL mid-run.
  const std::string dir = MakeTempDir("recovery");
  ServerProc first = SpawnServer(
      ServerArgs(workload, dir, executor, /*port=*/0, /*restore=*/false));
  ASSERT_GT(first.port, 0);
  const uint16_t port = first.port;
  std::vector<std::unique_ptr<EventFeed>> feeds = make_feeds();
  std::vector<QueryClients> conns;
  ConnectAll(conns, kQueries, Sources(workload), port);
  if (::testing::Test::HasFatalFailure()) return;
  SendSlice(feeds, conns, kPreCrashSafe, /*send_bye=*/false, RetryPolicy{});
  if (::testing::Test::HasFatalFailure()) return;
  AwaitDurableEpochs(conns, 2);
  if (::testing::Test::HasFatalFailure()) return;
  SendSlice(feeds, conns, kPreCrashSent, /*send_bye=*/false, RetryPolicy{});
  if (::testing::Test::HasFatalFailure()) return;
  KillServer(first);

  // Restart on the same port with --restore; clients reconnect and replay
  // their retained unacked tails, then finish the run.
  ServerProc second =
      SpawnServer(ServerArgs(workload, dir, executor, port, /*restore=*/true));
  ASSERT_GT(second.port, 0);
  EXPECT_TRUE(second.restored);
  EXPECT_GE(second.restored_epoch, 2u);
  int64_t replayed = 0;
  ASSERT_NO_FATAL_FAILURE(ReconnectAll(conns, &replayed));
  // The kill landed past the durable frontier, so some retained frames
  // were genuinely missing from the restored server.
  EXPECT_GT(replayed, 0);
  SendSlice(feeds, conns, kDuration, /*send_bye=*/true, TestRetry());
  if (::testing::Test::HasFatalFailure()) return;
  const ServerResult r = WaitServer(second);
  ASSERT_EQ(r.exit_code, 0);

  // The acceptance bar: crash + restore + replay is invisible in the output.
  EXPECT_EQ(r.results, baseline_results);
  EXPECT_EQ(r.results_hash, baseline_hash);
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsAndExecutors, RecoveryTest,
    ::testing::Combine(::testing::Values(WorkloadKind::kYsb,
                                         WorkloadKind::kLrb,
                                         WorkloadKind::kNyt),
                       ::testing::Values("sequential", "threads")),
    [](const ::testing::TestParamInfo<RecoveryTest::ParamType>& param) {
      return std::string(WorkloadFlagName(std::get<0>(param.param))) + "_" +
             std::get<1>(param.param);
    });

}  // namespace
}  // namespace klink
