#include "tests/support/klink_run_process.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <system_error>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/net/ingest_gateway.h"

namespace klink {

namespace {

/// Removes the directories MakeTempDir made during a test once the test
/// has ended, by then with its servers reaped. A failed test's directories
/// stay behind for inspection.
class TempDirReaper final : public ::testing::EmptyTestEventListener {
 public:
  void Add(std::string dir) { dirs_.push_back(std::move(dir)); }

  void OnTestEnd(const ::testing::TestInfo& test) override {
    if (!test.result()->Failed()) {
      for (const std::string& dir : dirs_) {
        std::error_code ignored;  // a test may have removed it already
        std::filesystem::remove_all(dir, ignored);
      }
    }
    dirs_.clear();
  }

 private:
  std::vector<std::string> dirs_;
};

TempDirReaper& Reaper() {
  // Installed on first use; gtest owns listeners once appended.
  static TempDirReaper* const reaper = [] {
    auto* r = new TempDirReaper;
    ::testing::UnitTest::GetInstance()->listeners().Append(r);
    return r;
  }();
  return *reaper;
}

}  // namespace

std::string MakeTempDir(const std::string& tag) {
  std::string tmpl = ::testing::TempDir() + "klink_" + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char* dir = mkdtemp(buf.data());
  KLINK_CHECK(dir != nullptr);
  Reaper().Add(dir);
  return std::string(dir);
}

RetryPolicy TestRetry() {
  RetryPolicy retry;
  retry.max_retries = 60;
  retry.initial_backoff = MillisToMicros(20);
  retry.max_backoff = MillisToMicros(500);
  return retry;
}

std::vector<uint64_t> FeedSeeds(uint64_t seed, int queries) {
  Rng rng(seed);
  std::vector<uint64_t> seeds;
  for (int q = 0; q < queries; ++q) seeds.push_back(rng.NextUint64());
  return seeds;
}

ServerProc SpawnServer(const std::vector<std::string>& args) {
  std::vector<std::string> argv_strings = {"klink_run"};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());

  int fds[2];
  KLINK_CHECK_EQ(pipe(fds), 0);
  const pid_t pid = fork();
  KLINK_CHECK_GE(pid, 0);
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);  // stderr stays on the test's stderr
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> argv;
    for (std::string& a : argv_strings) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(KLINK_RUN_PATH, argv.data());
    _exit(127);
  }
  close(fds[1]);

  ServerProc p;
  p.pid = pid;
  p.out = fdopen(fds[0], "r");
  KLINK_CHECK(p.out != nullptr);
  char line[512];
  while (std::fgets(line, sizeof(line), p.out) != nullptr) {
    unsigned long long epoch = 0;
    unsigned bound = 0;
    if (std::sscanf(line, "restored checkpoint epoch %llu", &epoch) == 1) {
      p.restored = true;
      p.restored_epoch = epoch;
    }
    if (std::sscanf(line, "listening on 127.0.0.1:%u", &bound) == 1) {
      p.port = static_cast<uint16_t>(bound);
      break;
    }
  }
  return p;
}

ServerResult WaitServer(ServerProc& p) {
  ServerResult r;
  char line[512];
  while (std::fgets(line, sizeof(line), p.out) != nullptr) {
    r.output += line;
    long long value = 0;
    char hash[64];
    int q = 0;
    unsigned long long epoch = 0;
    if (std::sscanf(line, "results %lld", &value) == 1) r.results = value;
    // Per-tenant lines first: the combined pattern would read "qN" as the
    // hash otherwise.
    if (std::sscanf(line, "results_hash q%d %63s", &q, hash) == 2) {
      r.tenant_hashes[q] = hash;
    } else if (std::sscanf(line, "results_hash %63s", hash) == 1) {
      r.results_hash = hash;
    }
    if (std::sscanf(line, "checkpoint durable_epoch %llu", &epoch) == 1) {
      r.durable_epoch = epoch;
    }
    if (std::sscanf(line, "reshards completed %lld", &value) == 1) {
      r.reshards_completed = value;
    }
  }
  std::fclose(p.out);
  p.out = nullptr;
  int status = 0;
  KLINK_CHECK_EQ(waitpid(p.pid, &status, 0), p.pid);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

void KillServer(ServerProc& p) {
  KLINK_CHECK_EQ(kill(p.pid, SIGKILL), 0);
  int status = 0;
  KLINK_CHECK_EQ(waitpid(p.pid, &status, 0), p.pid);
  std::fclose(p.out);
  p.out = nullptr;
}

void Connect(QueryClients& clients, int q, int sources, uint16_t port) {
  for (int s = 0; s < sources; ++s) {
    clients.push_back(std::make_unique<LoadgenConnection>());
    ASSERT_TRUE(clients.back()
                    ->Connect("127.0.0.1", port, MakeStreamId(q, s),
                              TestRetry())
                    .ok())
        << "query " << q << " source " << s;
  }
}

void ConnectAll(std::vector<QueryClients>& conns, int queries, int sources,
                uint16_t port) {
  for (int q = 0; q < queries; ++q) {
    conns.emplace_back();
    Connect(conns.back(), q, sources, port);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

void SendSlice(std::vector<std::unique_ptr<EventFeed>>& feeds,
               std::vector<QueryClients>& conns, int q, TimeMicros until,
               bool send_bye, const RetryPolicy& reconnect) {
  ReplayOptions opts;
  opts.until = until;
  opts.speed = 0.0;
  opts.send_bye = send_bye;
  opts.reconnect = reconnect;
  std::vector<LoadgenConnection*> clients;
  for (auto& client : conns[static_cast<size_t>(q)]) {
    clients.push_back(client.get());
  }
  const Status s = ReplayFeed(*feeds[static_cast<size_t>(q)], clients, opts);
  ASSERT_TRUE(s.ok()) << "query " << q << ": " << s.ToString();
}

void SendSlice(std::vector<std::unique_ptr<EventFeed>>& feeds,
               std::vector<QueryClients>& conns, TimeMicros until,
               bool send_bye, const RetryPolicy& reconnect) {
  for (size_t q = 0; q < feeds.size(); ++q) {
    SendSlice(feeds, conns, static_cast<int>(q), until, send_bye, reconnect);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

void AwaitDurableEpochs(std::vector<QueryClients>& conns, uint64_t epochs) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (true) {
    uint64_t min_epoch = std::numeric_limits<uint64_t>::max();
    for (QueryClients& clients : conns) {
      for (auto& client : clients) {
        ASSERT_TRUE(client->PollAcks().ok());
        min_epoch = std::min(min_epoch, client->durable_epoch());
      }
    }
    if (min_epoch >= epochs) return;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "no durable checkpoint acks from the server";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void ReconnectAll(std::vector<QueryClients>& conns, int64_t* replayed_frames) {
  for (QueryClients& clients : conns) {
    for (auto& client : clients) {
      ASSERT_TRUE(client->Reconnect(TestRetry()).ok());
      if (replayed_frames != nullptr) {
        *replayed_frames += client->stats().replayed_frames;
      }
    }
  }
}

}  // namespace klink
