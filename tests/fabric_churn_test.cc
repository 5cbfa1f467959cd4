// Tenant churn end to end over real processes and sockets: a klink_run
// --listen --dynamic-attach server has tenants attach late (their first
// kHello deploys the query live) and detach early (kBye drains and retires
// it mid-run), driven over TCP in blast mode against a --lockstep server.
//
// Acceptance bars:
//  - both executors print byte-identical per-tenant results_hash lines
//    under churn (attach/detach must not perturb surviving tenants);
//  - churn racing barrier checkpoints survives a SIGKILL + --restore:
//    the interrupted run's per-tenant hashes equal an uninterrupted
//    churn baseline's, including the tenant that detaches right after
//    the restore;
//  - the late-data table keeps a row for a tenant that left, keyed by
//    tenant index like the results_hash qN lines.
//
// Same harness as recovery_test.cc: tests/support/klink_run_process.h
// fork/execs the real klink_run and parses its stdout over a pipe.

#include <cstdint>
#include <memory>
#include <sstream>
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
constexpr int kTenants = 4;
/// Tenant 0 replays only this prefix, then says goodbye (early detach).
constexpr TimeMicros kDetachAt = SecondsToMicros(3);
constexpr double kRate = 500.0;
constexpr TimeMicros kDuration = SecondsToMicros(6);
/// Checkpoint-scenario prefix delivered before the crash (several 500 ms
/// epochs durable), and the slightly longer sent-but-not-durable slice.
constexpr TimeMicros kPreCrashSafe = SecondsToMicros(2);
constexpr TimeMicros kPreCrashSent = MillisToMicros(2500);

std::unique_ptr<EventFeed> TenantFeed(
    uint64_t feed_seed,
    std::unique_ptr<DelayModel> delay = std::make_unique<ConstantDelay>(0)) {
  YsbConfig wc;
  wc.events_per_second = kRate;
  wc.watermark_lag = MillisToMicros(50);
  return MakeYsbFeed(wc, std::move(delay), feed_seed, /*start_time=*/0);
}

/// The server's command line (argv after the program name).
std::vector<std::string> ServerArgs(const std::string& executor,
                                    uint16_t port,
                                    const std::string& checkpoint_dir,
                                    bool restore) {
  std::vector<std::string> args = {
      "--listen=" + std::to_string(port),
      "--lockstep",
      "--dynamic-attach",
      "--expect-tenants=" + std::to_string(kTenants),
      "--policy=fcfs",
      "--workload=ysb",
      "--queries=" + std::to_string(kTenants),
      "--rate=" + std::to_string(static_cast<long long>(kRate)),
      "--duration=" + std::to_string(kDuration / 1000000),
      "--cores=2",
      "--memory-mb=64",
      "--seed=" + std::to_string(kSeed),
      "--executor=" + executor,
  };
  if (!checkpoint_dir.empty()) {
    args.push_back("--checkpoint-dir=" + checkpoint_dir);
    args.push_back("--checkpoint-interval-ms=500");
  }
  if (restore) args.push_back("--restore");
  return args;
}

/// Each tenant's churn role: how far it replays before goodbye.
TimeMicros TenantUntil(int q) { return q == 0 ? kDetachAt : kDuration; }

/// One full churn run: tenants 0..2 attach up front, tenant 3's first
/// hello lands after the others already blasted their feeds (a genuinely
/// late attach — the server deploys its query live), tenant 0 replays half
/// the run and says goodbye (graceful drain-detach mid-run).
ServerResult RunChurn(const std::string& executor,
                      const std::string& checkpoint_dir) {
  ServerResult r;
  ServerProc server = SpawnServer(
      ServerArgs(executor, /*port=*/0, checkpoint_dir, /*restore=*/false));
  EXPECT_GT(server.port, 0);
  if (server.port == 0) return r;

  const std::vector<uint64_t> seeds = FeedSeeds(kSeed, kTenants);
  std::vector<std::unique_ptr<EventFeed>> feeds;
  std::vector<QueryClients> conns(kTenants);
  for (int q = 0; q < kTenants; ++q) {
    feeds.push_back(TenantFeed(seeds[static_cast<size_t>(q)]));
  }
  for (int q = 0; q < kTenants - 1; ++q) {
    Connect(conns[static_cast<size_t>(q)], q, /*sources=*/1, server.port);
    if (::testing::Test::HasFatalFailure()) return r;
  }
  // Survivors 1, 2 blast their entire runs before tenant 3 even connects.
  for (int q = 1; q < kTenants - 1; ++q) {
    SendSlice(feeds, conns, q, TenantUntil(q), /*send_bye=*/true,
              RetryPolicy{});
    if (::testing::Test::HasFatalFailure()) return r;
  }
  Connect(conns.back(), kTenants - 1, /*sources=*/1, server.port);
  if (::testing::Test::HasFatalFailure()) return r;
  SendSlice(feeds, conns, kTenants - 1, TenantUntil(kTenants - 1),
            /*send_bye=*/true, RetryPolicy{});
  if (::testing::Test::HasFatalFailure()) return r;
  // The early-departing tenant goes last so its goodbye (and the drain
  // detach it triggers) races everyone else's already-staged work.
  SendSlice(feeds, conns, 0, TenantUntil(0), /*send_bye=*/true,
            RetryPolicy{});
  if (::testing::Test::HasFatalFailure()) return r;

  r = WaitServer(server);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.tenant_hashes.size(), static_cast<size_t>(kTenants));
  EXPECT_NE(r.output.find("tenant 0 detached"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("tenant 3 attached"), std::string::npos)
      << r.output;
  return r;
}

// Live attach/detach over TCP must leave surviving tenants' results
// byte-identical across executors (and the detached tenant's half-run
// results are deterministic too).
TEST(FabricChurnTest, ChurnResultsByteIdenticalAcrossExecutors) {
  const ServerResult seq = RunChurn("sequential", "");
  if (::testing::Test::HasFatalFailure()) return;
  const ServerResult thr = RunChurn("threads", "");
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_FALSE(seq.tenant_hashes.empty());
  EXPECT_EQ(seq.tenant_hashes, thr.tenant_hashes);
  EXPECT_EQ(seq.results_hash, thr.results_hash);
  EXPECT_EQ(seq.results, thr.results);
}

// Churn racing barrier checkpoints: deliver a prefix, let epochs become
// durable, SIGKILL past the durable frontier, restart with --restore, then
// run the churn (tenant 0's goodbye lands right after the restore, while
// post-restore barriers are in flight). Every tenant's hash must equal the
// uninterrupted churn baseline's.
TEST(FabricChurnTest, ChurnRacingCheckpointSurvivesKillAndRestore) {
  const ServerResult baseline = RunChurn("sequential", MakeTempDir("churn"));
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_EQ(baseline.tenant_hashes.size(), static_cast<size_t>(kTenants));
  EXPECT_GE(baseline.durable_epoch, 2u);

  const std::string dir = MakeTempDir("churn");
  ServerProc first = SpawnServer(
      ServerArgs("sequential", /*port=*/0, dir, /*restore=*/false));
  ASSERT_GT(first.port, 0);
  const uint16_t port = first.port;

  const std::vector<uint64_t> seeds = FeedSeeds(kSeed, kTenants);
  std::vector<std::unique_ptr<EventFeed>> feeds;
  std::vector<QueryClients> conns;
  for (int q = 0; q < kTenants; ++q) {
    feeds.push_back(TenantFeed(seeds[static_cast<size_t>(q)]));
  }
  ConnectAll(conns, kTenants, /*sources=*/1, port);
  if (::testing::Test::HasFatalFailure()) return;
  for (int q = 0; q < kTenants; ++q) {
    SendSlice(feeds, conns, q, kPreCrashSafe, /*send_bye=*/false,
              RetryPolicy{});
    if (::testing::Test::HasFatalFailure()) return;
  }
  AwaitDurableEpochs(conns, 2);
  if (::testing::Test::HasFatalFailure()) return;
  for (int q = 0; q < kTenants; ++q) {
    SendSlice(feeds, conns, q, kPreCrashSent, /*send_bye=*/false,
              RetryPolicy{});
    if (::testing::Test::HasFatalFailure()) return;
  }
  KillServer(first);

  // Restore re-attaches every checkpointed tenant before listening (the
  // expect-tenants gate is already satisfied); clients reconnect, replay
  // their unacked tails, and the churn proceeds: tenant 0 finishes its
  // half-run and detaches while the restored run's barriers circulate.
  ServerProc second =
      SpawnServer(ServerArgs("sequential", port, dir, /*restore=*/true));
  ASSERT_GT(second.port, 0);
  EXPECT_TRUE(second.restored);
  int64_t replayed = 0;
  ASSERT_NO_FATAL_FAILURE(ReconnectAll(conns, &replayed));
  EXPECT_GT(replayed, 0);
  for (int q = 1; q < kTenants; ++q) {
    SendSlice(feeds, conns, q, TenantUntil(q), /*send_bye=*/true,
              TestRetry());
    if (::testing::Test::HasFatalFailure()) return;
  }
  SendSlice(feeds, conns, 0, TenantUntil(0), /*send_bye=*/true, TestRetry());
  if (::testing::Test::HasFatalFailure()) return;

  const ServerResult r = WaitServer(second);
  ASSERT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("tenant 0 detached"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.tenant_hashes, baseline.tenant_hashes);
  EXPECT_EQ(r.results_hash, baseline.results_hash);
  EXPECT_EQ(r.results, baseline.results);
}

/// The first cell of every row of the "Late-data accounting" table in a
/// server's output, or nothing when the run printed no such table.
std::vector<std::string> LateTableRows(const std::string& output) {
  std::vector<std::string> rows;
  const size_t table = output.find("== Late-data accounting");
  if (table == std::string::npos) return rows;
  std::istringstream lines(output.substr(table));
  std::string line;
  std::getline(lines, line);  // title
  std::getline(lines, line);  // header
  std::getline(lines, line);  // rule
  while (std::getline(lines, line) && !line.empty() && line[0] != '=') {
    std::istringstream cells(line);
    std::string first;
    cells >> first;
    if (first.empty() || first.find_first_not_of("0123456789") !=
                             std::string::npos) {
      break;  // past the table
    }
    rows.push_back(first);
  }
  return rows;
}

// Tenant 1 attaches first (query id 0), tenant 0 second (query id 1) and
// says goodbye halfway under Pareto stragglers with 300 ms of allowed
// lateness: its results still count, so its late-data row stays, under its
// tenant index.
TEST(FabricChurnTest, LateDataTableKeepsDepartedTenantsByIndex) {
  ServerProc server = SpawnServer({
      "--listen=0", "--lockstep", "--dynamic-attach", "--expect-tenants=2",
      "--policy=fcfs", "--workload=ysb", "--queries=2", "--rate=500",
      "--duration=6", "--cores=2", "--memory-mb=64", "--seed=1",
      "--executor=sequential", "--allowed-lateness-ms=300"});
  ASSERT_GT(server.port, 0);
  const std::vector<uint64_t> seeds = FeedSeeds(kSeed, 2);
  std::vector<std::unique_ptr<EventFeed>> feeds;
  for (int q = 0; q < 2; ++q) {
    feeds.push_back(TenantFeed(
        seeds[static_cast<size_t>(q)],
        std::make_unique<ParetoDelay>(0, 1.3, MillisToMicros(25))));
  }
  std::vector<QueryClients> conns(2);
  Connect(conns[1], 1, /*sources=*/1, server.port);
  if (::testing::Test::HasFatalFailure()) return;
  SendSlice(feeds, conns, 1, kDuration, /*send_bye=*/true, RetryPolicy{});
  if (::testing::Test::HasFatalFailure()) return;
  Connect(conns[0], 0, /*sources=*/1, server.port);
  if (::testing::Test::HasFatalFailure()) return;
  SendSlice(feeds, conns, 0, kDetachAt, /*send_bye=*/true, RetryPolicy{});
  if (::testing::Test::HasFatalFailure()) return;

  const ServerResult r = WaitServer(server);
  ASSERT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("tenant 0 attached (query id 1)"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("tenant 0 detached"), std::string::npos)
      << r.output;
  EXPECT_EQ(LateTableRows(r.output), (std::vector<std::string>{"0", "1"}))
      << r.output;
}

}  // namespace
}  // namespace klink
