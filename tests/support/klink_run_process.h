#ifndef KLINK_TESTS_SUPPORT_KLINK_RUN_PROCESS_H_
#define KLINK_TESTS_SUPPORT_KLINK_RUN_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/net/loadgen.h"
#include "src/runtime/event_feed.h"

namespace klink {

// Drives the real klink_run binary the way an operator would: fork/exec
// a listen-mode server, read its stdout over a pipe for the bound port,
// the restore banner and the final results lines, and feed it from
// in-process loadgen clients over loopback TCP. Used by the
// crash-recovery, tenant-churn, re-shard and lateness tests; MakeTempDir
// serves every test that needs a scratch directory.

/// A fresh directory under the gtest temp dir, named klink_<tag>_XXXXXX.
/// It is removed with its contents when the current test ends, unless the
/// test failed.
std::string MakeTempDir(const std::string& tag);

/// Connect and reconnect retries generous enough to ride out a server
/// restart.
RetryPolicy TestRetry();

/// Per-query feed seeds, drawn the way the loadgen tool draws them: one
/// NextUint64 per query from the run seed.
std::vector<uint64_t> FeedSeeds(uint64_t seed, int queries);

struct ServerProc {
  pid_t pid = -1;
  std::FILE* out = nullptr;  // server stdout, read end of the pipe
  uint16_t port = 0;         // 0: the server never printed its banner
  bool restored = false;
  uint64_t restored_epoch = 0;
};

struct ServerResult {
  int exit_code = -1;
  int64_t results = -1;
  /// The combined "results_hash <hash>" line.
  std::string results_hash;
  /// tenant index -> "results_hash qN <hash>" (--dynamic-attach runs).
  std::map<int, std::string> tenant_hashes;
  uint64_t durable_epoch = 0;
  int64_t reshards_completed = -1;
  std::string output;
};

/// Forks and execs klink_run with `args` (argv after argv[0]), then reads
/// its stdout until the "listening on" banner so the (possibly
/// auto-assigned) port is known. The server's stderr stays on the test's.
ServerProc SpawnServer(const std::vector<std::string>& args);

/// Reads the server's remaining output to EOF (results lines included)
/// and reaps the process.
ServerResult WaitServer(ServerProc& p);

/// The crash: SIGKILL, no flush, no shutdown hooks.
void KillServer(ServerProc& p);

/// One query's clients, one connection per source stream: client s
/// carries stream MakeStreamId(q, s), as the loadgen tool connects them.
using QueryClients = std::vector<std::unique_ptr<LoadgenConnection>>;

/// Appends `sources` clients to `clients` and connects them as the source
/// streams of query `q`.
void Connect(QueryClients& clients, int q, int sources, uint16_t port);

/// Appends the connected clients of queries 0..queries-1 to `conns`.
void ConnectAll(std::vector<QueryClients>& conns, int queries, int sources,
                uint16_t port);

/// Blasts query q's feed slice (ingest_time <= until) on its clients;
/// the --lockstep server makes the result independent of the pacing.
void SendSlice(std::vector<std::unique_ptr<EventFeed>>& feeds,
               std::vector<QueryClients>& conns, int q, TimeMicros until,
               bool send_bye, const RetryPolicy& reconnect);

/// SendSlice for every query in index order.
void SendSlice(std::vector<std::unique_ptr<EventFeed>>& feeds,
               std::vector<QueryClients>& conns, TimeMicros until,
               bool send_bye, const RetryPolicy& reconnect);

/// Polls acks until every client has seen >= `epochs` durable epochs.
void AwaitDurableEpochs(std::vector<QueryClients>& conns, uint64_t epochs);

/// Reconnects every client after a server restart; each replays its
/// retained unacked tail. Adds the frames replayed to `*replayed_frames`
/// unless it is null.
void ReconnectAll(std::vector<QueryClients>& conns,
                  int64_t* replayed_frames = nullptr);

}  // namespace klink

#endif  // KLINK_TESTS_SUPPORT_KLINK_RUN_PROCESS_H_
