// Kill-mid-run crash recovery, end to end over real processes and sockets:
// a klink_run --listen server with barrier checkpoints armed is SIGKILLed
// between checkpoints, restarted with --restore, and fed the rest of the
// run by clients that reconnect and replay their unacked tails. The
// acceptance bar is exact: the interrupted run must print the
// byte-identical results_hash of an uninterrupted baseline, for both the
// sequential and the thread-pool executor.
//
// The server binary is driven the way an operator would drive it, through
// the fork/exec harness in tests/support/klink_run_process.h.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/delay_model.h"
#include "src/net/loadgen.h"
#include "src/workloads/ysb.h"
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

std::unique_ptr<EventFeed> QueryFeed(uint64_t feed_seed) {
  YsbConfig wc;
  wc.events_per_second = kRate;
  wc.watermark_lag = MillisToMicros(50);  // loadgen's --delay=none lag
  return MakeYsbFeed(wc, std::make_unique<ConstantDelay>(0), feed_seed,
                     /*start_time=*/0);
}

/// The server's command line (argv after the program name).
std::vector<std::string> ServerArgs(const std::string& checkpoint_dir,
                                    const std::string& executor,
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
      "--executor=" + executor,
      "--checkpoint-dir=" + checkpoint_dir,
      "--checkpoint-interval-ms=500",
  };
  if (restore) args.push_back("--restore");
  return args;
}

void RunRecoveryScenario(const std::string& executor) {
  const std::vector<uint64_t> seeds = FeedSeeds(kSeed, kQueries);

  // Uninterrupted baseline: same flags, same feeds, no crash.
  std::string baseline_hash;
  int64_t baseline_results = 0;
  {
    const std::string dir = MakeTempDir("recovery");
    ServerProc server = SpawnServer(
        ServerArgs(dir, executor, /*port=*/0, /*restore=*/false));
    ASSERT_GT(server.port, 0);
    std::vector<std::unique_ptr<EventFeed>> feeds;
    std::vector<std::unique_ptr<LoadgenConnection>> conns;
    for (int q = 0; q < kQueries; ++q) {
      feeds.push_back(QueryFeed(seeds[static_cast<size_t>(q)]));
    }
    ConnectAll(conns, kQueries, server.port);
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
      ServerArgs(dir, executor, /*port=*/0, /*restore=*/false));
  ASSERT_GT(first.port, 0);
  const uint16_t port = first.port;
  std::vector<std::unique_ptr<EventFeed>> feeds;
  std::vector<std::unique_ptr<LoadgenConnection>> conns;
  for (int q = 0; q < kQueries; ++q) {
    feeds.push_back(QueryFeed(seeds[static_cast<size_t>(q)]));
  }
  ConnectAll(conns, kQueries, port);
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
      SpawnServer(ServerArgs(dir, executor, port, /*restore=*/true));
  ASSERT_GT(second.port, 0);
  EXPECT_TRUE(second.restored);
  EXPECT_GE(second.restored_epoch, 2u);
  int64_t replayed = 0;
  for (auto& conn : conns) {
    ASSERT_TRUE(conn->Reconnect(TestRetry()).ok());
    replayed += conn->stats().replayed_frames;
  }
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

TEST(RecoveryTest, KillMidRunIsByteIdenticalOnSequential) {
  RunRecoveryScenario("sequential");
}

TEST(RecoveryTest, KillMidRunIsByteIdenticalOnThreads) {
  RunRecoveryScenario("threads");
}

}  // namespace
}  // namespace klink
