// klink_run: run one scheduling experiment from the command line without
// writing C++. Wraps the harness in src/harness/experiment.h.
//
//   klink_run --policy=klink --workload=ysb --queries=60 --rate=1000
//             --delay=uniform --duration=120 --warmup=30 --cores=8
//             --memory-mb=16 --seed=1 [--csv=out.csv]
//
// Prints the paper's metrics (mean/tail latency, throughput, slowdown,
// utilization, estimator accuracy, scheduler overhead) for the run.
//
// With --listen=PORT the engine ingests over real TCP instead of the
// in-process synthetic feeds: it serves the ingest wire protocol on
// 127.0.0.1:PORT (one connection per query source, fed by the loadgen
// tool), maps wall-clock time onto the virtual clock, and prints ingest
// counters next to the usual metrics:
//
//   klink_run --listen=9099 --policy=klink --workload=ysb --queries=4
//             --duration=30 [--ingest-budget-kb=4096] [--lockstep]
//
// --lockstep advances virtual time only through prefixes that have fully
// arrived on every stream (per-stream arrival watermarks; a stream that
// has not connected yet holds the clock, so the server waits for every
// tenant), making a blast-mode loadgen replay deterministic: the same
// results on either executor, with or without checkpoints, however
// loadgen slices its replay. It is not the in-process run of the same
// flags, which spreads deploys over 20 s and cuts a warm-up, where the
// listen server deploys every tenant at t=0. Both modes run the serve
// loop ServeIngest (src/net/serve_loop.h).
//
// --dynamic-attach turns the closed-world server into a multi-tenant
// fabric: no queries are deployed up front; the first kHello naming a
// stream of tenant q (stream ids follow MakeStreamId, so q = id / 8)
// builds and attaches that tenant's query live, and once all of a
// tenant's streams send kBye the query drain-detaches — queued work,
// including in-flight checkpoint barriers, completes before it retires.
// Tenant indexes still live in [0, --queries), and each tenant's workload
// parameters are drawn from the same seeded rng stream as the static
// server, so attach order (network arrival order) never changes what a
// tenant computes. Per-tenant `results_hash qN` lines are printed so
// churn harnesses can compare survivors across runs.
//
// Fault tolerance (listen mode): --checkpoint-dir=DIR arms barrier
// checkpoints every --checkpoint-interval-ms of virtual time; durable
// epochs are acked to clients so they can trim their replay buffers.
// After a crash, the same command line plus --restore loads the newest
// complete checkpoint, rewinds the gateway's sequence cursors, and
// resumes — reconnecting clients replay their unacked tails and the run
// finishes with the byte-identical results_hash of an uninterrupted run:
//
//   klink_run --listen=9099 --lockstep --checkpoint-dir=/tmp/ck ...
//   <SIGKILL>
//   klink_run --listen=9099 --lockstep --checkpoint-dir=/tmp/ck --restore ...
//
// Sharded execution: --shards=N hash-partitions each query's keyed
// aggregation into N concurrently schedulable shard lanes (--max-shards
// raises the re-shard ceiling above the initial count, up to 64); results
// are byte-identical to the unsharded run. Only YSB and NYT shard: LRB's
// windowed join builds no shard region, so --workload=lrb rejects either
// flag above 1. In listen mode with checkpoints,
// --reshard=COUNT@SECONDS re-partitions every query's keyed state to
// COUNT active shards at the first barrier after the given virtual time,
// while the run keeps going. A per-shard metrics table prints at the end
// of listen-mode runs.

#include <sys/stat.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/harness/experiment.h"
#include "src/harness/reporter.h"
#include "src/net/ingest_gateway.h"
#include "src/net/ingest_server.h"
#include "src/net/serve_loop.h"
#include "src/query/pipeline_builder.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/engine.h"
#include "src/runtime/reshard.h"

namespace {

using namespace klink;

bool ParsePolicy(const std::string& s, PolicyKind* out) {
  static const std::pair<const char*, PolicyKind> kTable[] = {
      {"default", PolicyKind::kDefault},
      {"fcfs", PolicyKind::kFcfs},
      {"rr", PolicyKind::kRoundRobin},
      {"hr", PolicyKind::kHighestRate},
      {"sbox", PolicyKind::kStreamBox},
      {"klink", PolicyKind::kKlink},
      {"klink-nomm", PolicyKind::kKlinkNoMm},
  };
  for (const auto& [name, kind] : kTable) {
    if (s == name) {
      *out = kind;
      return true;
    }
  }
  return false;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: klink_run [--policy=default|fcfs|rr|hr|sbox|klink|klink-nomm]\n"
      "                 [--workload=ysb|lrb|nyt] [--queries=N] [--rate=EPS]\n"
      "                 [--delay=uniform|zipf|pareto] [--duration=SECONDS]\n"
      "                 [--allowed-lateness-ms=N]\n"
      "                 [--warmup=SECONDS] [--cores=N] [--memory-mb=N]\n"
      "                 [--executor=sequential|threads]\n"
      "                 [--confidence=F] [--seed=N] [--csv=PATH]\n"
      "                 [--shards=N] [--max-shards=N]\n"
      "                 [--listen=PORT [--ingest-budget-kb=N] [--lockstep]\n"
      "                  [--dynamic-attach [--expect-tenants=N]]\n"
      "                  [--checkpoint-dir=DIR [--checkpoint-interval-ms=N]\n"
      "                   [--restore] [--reshard=COUNT@SECONDS]]]\n");
  return 2;
}

/// Rejects a `--name` value whose conversion to a finer unit (times
/// `scale`) would overflow int64.
Status CheckScaled(const char* name, int64_t value, int64_t scale) {
  if (value > std::numeric_limits<int64_t>::max() / scale ||
      value < std::numeric_limits<int64_t>::min() / scale) {
    return Status::InvalidArgument(std::string("--") + name + " value " +
                                   std::to_string(value) +
                                   " is out of range");
  }
  return Status::Ok();
}

/// Checkpointing options of listen mode (see CheckpointConfig).
struct CheckpointFlags {
  std::string dir;  // empty = checkpointing off
  DurationMicros interval = SecondsToMicros(1);
  bool restore = false;
};

/// Live re-sharding options of listen mode (see ReshardController).
/// --reshard=COUNT@SECONDS re-shards every sharded tenant to COUNT active
/// shards once virtual time passes SECONDS; the trigger re-requests every
/// cycle until each query reaches the target, so a run killed around the
/// re-shard and restarted with --restore converges to the same state no
/// matter which protocol step the newest checkpoint captured.
struct ReshardFlags {
  int target = 0;     // 0 = no re-shard
  TimeMicros at = 0;  // virtual trigger time
};

/// One tenant of the listen-mode server: a query index in
/// [0, --queries), its deployed query id (its attach index), and the
/// gateway streams feeding its sources.
struct Tenant {
  QueryId id = 0;
  std::vector<uint32_t> streams;
  bool detached = false;
};

/// Serves the ingest protocol and runs the engine against TCP arrivals.
int RunListenMode(const ExperimentConfig& config, uint16_t port,
                  int64_t ingest_budget_bytes, bool lockstep,
                  bool dynamic_attach, int expect_tenants,
                  const CheckpointFlags& ckpt, const ReshardFlags& reshard) {
  KlinkPolicyConfig klink_config = config.klink;
  klink_config.cycle_length = config.engine.cycle_length;
  Engine engine(config.engine, MakePolicy(config.policy, klink_config,
                                          config.seed ^ 0x5eedULL));

  // Each tenant draws a feed seed and a window offset from --seed, in that
  // order, and uses only the offset: the server builds no feed, and loadgen
  // draws its own seeds (one per tenant). The unused draw keeps the offsets,
  // and so every pinned TCP hash, where they are. Neither order is the
  // in-process harness's (deploy, feed seed, offset), so a TCP tenant does
  // not get the window phase of the in-process tenant with the same index.
  // All offsets are drawn up front: in dynamic-attach mode tenants deploy
  // in network arrival order, which must never perturb another tenant's
  // window offset.
  IngestGateway gateway;
  Rng rng(config.seed);
  std::vector<DurationMicros> window_offsets;
  window_offsets.reserve(static_cast<size_t>(config.num_queries));
  for (int q = 0; q < config.num_queries; ++q) {
    rng.NextUint64();  // the feed seed
    window_offsets.push_back(
        rng.NextInt(0, WindowOffsetRange(config.workload) - 1));
  }

  std::unique_ptr<CheckpointCoordinator> coordinator;
  if (!ckpt.dir.empty()) {
    CheckpointConfig cc;
    cc.dir = ckpt.dir;
    cc.interval = ckpt.interval;
    coordinator = std::make_unique<CheckpointCoordinator>(cc);
  }

  // Live re-sharding pauses at checkpoint barriers, so the protocol only
  // runs when a coordinator injects them (main insists on one).
  std::unique_ptr<ReshardController> resharder;
  if (reshard.target > 0) {
    KLINK_CHECK(coordinator != nullptr);
    resharder = std::make_unique<ReshardController>(&engine);
    engine.SetReshardController(resharder.get());
  }

  // Tenants keyed by query index (a std::map: the results fingerprint at
  // the end folds in index order, independent of attach order). Indexes
  // are single-use per run — a departed tenant's stats stay readable and
  // its streams' sequence state stays authoritative for late duplicates.
  std::map<int, Tenant> tenants;
  auto attach_tenant = [&](int q) -> bool {
    if (q < 0 || q >= config.num_queries) return false;
    if (tenants.count(q) != 0) return false;
    std::unique_ptr<Query> query;
    MakeTenant(TenantOf(config, window_offsets[static_cast<size_t>(q)]), q,
               &query, /*feed=*/nullptr);
    Tenant t;
    for (size_t s = 0; s < query->sources().size(); ++s) {
      const uint32_t id = MakeStreamId(q, static_cast<int>(s));
      IngestStreamConfig sc;
      sc.byte_budget = ingest_budget_bytes;
      gateway.RegisterStream(id, sc);
      t.streams.push_back(id);
    }
    auto feed = std::make_unique<NetworkFeed>(&gateway, t.streams);
    t.id = engine.AddQuery(std::move(query), std::move(feed),
                           /*deploy_time=*/engine.now());
    if (coordinator != nullptr) {
      coordinator->RegisterQuery(&engine.query(t.id), t.streams, &gateway);
    }
    tenants.emplace(q, std::move(t));
    return true;
  };
  if (!dynamic_attach) {
    // Closed world: the full query set deploys up front, exactly like the
    // in-process harness.
    for (int q = 0; q < config.num_queries; ++q) {
      KLINK_CHECK(attach_tenant(q));
    }
  }

  // Arm barrier checkpoints (and optionally restore) before serving: the
  // gateway's sequence cursors must be rewound before the first client
  // hello reads them back via HELLO_ACK. A checkpoint whose queries this
  // run does not build is refused (exit 2) before the server listens.
  if (coordinator != nullptr) {
    if (ckpt.restore) {
      LoadedCheckpoint loaded;
      if (LoadLatestCheckpoint(ckpt.dir, &loaded)) {
        const auto mismatch = [&](const std::string& why) {
          std::fprintf(stderr, "--restore: checkpoint epoch %llu in %s %s\n",
                       static_cast<unsigned long long>(loaded.epoch),
                       ckpt.dir.c_str(), why.c_str());
          return Usage();
        };
        if (!dynamic_attach) {
          std::set<QueryId> saved, built;
          for (const LoadedQueryState& qs : loaded.queries) {
            saved.insert(qs.query_id);
          }
          for (const auto& [q, t] : tenants) built.insert(t.id);
          if (saved != built) {
            return mismatch("holds " + std::to_string(saved.size()) +
                            " queries where this run deploys " +
                            std::to_string(built.size()) +
                            ": --queries must match the run that wrote it");
          }
        }
        for (const LoadedQueryState& qs : loaded.queries) {
          QueryId target = qs.query_id;
          if (dynamic_attach) {
            // Checkpointed tenants re-deploy before serving, in the
            // checkpoint's id order, which is their attach order; the
            // tenant index is recoverable from any cursor's stream id. A
            // retired tenant is not checkpointed but kept its id, so the
            // fresh id can be lower than the captured one; state restores
            // into the new id.
            const int q =
                qs.cursors.empty()
                    ? -1
                    : static_cast<int>(qs.cursors[0].first / kStreamsPerQuery);
            if (!attach_tenant(q)) {
              return mismatch("holds tenant " + std::to_string(q) +
                              ", which --queries=" +
                              std::to_string(config.num_queries) +
                              " cannot attach once");
            }
            target = tenants.at(q).id;
          }
          const int built_ops = engine.query(target).num_operators();
          if (static_cast<int>(qs.op_blobs.size()) != built_ops) {
            return mismatch(
                "holds " + std::to_string(qs.op_blobs.size()) +
                " operators for a query this run builds with " +
                std::to_string(built_ops) +
                ": --workload, --shards and --max-shards must match the "
                "run that wrote it");
          }
          RestoreQueryState(qs, &engine.query(target));
          for (const auto& [stream_id, seq] : qs.cursors) {
            gateway.RestoreCursor(stream_id, seq);
          }
        }
        engine.RestoreClock(loaded.checkpoint_time);
        coordinator->ResumeFrom(loaded.epoch, loaded.checkpoint_time);
        std::printf("restored checkpoint epoch %llu (t=%.3f s)\n",
                    static_cast<unsigned long long>(loaded.epoch),
                    MicrosToSeconds(loaded.checkpoint_time));
      } else {
        std::printf("no complete checkpoint in %s; starting fresh\n",
                    ckpt.dir.c_str());
      }
    }
    engine.SetCheckpointCoordinator(coordinator.get());
  }

  IngestServerConfig server_config;
  server_config.port = port;
  server_config.idle_timeout_ms = 60000;
  if (dynamic_attach) {
    server_config.on_unknown_stream = [&](uint32_t stream_id) {
      const int q = static_cast<int>(stream_id / kStreamsPerQuery);
      if (attach_tenant(q)) {
        std::printf("tenant %d attached (query id %llu) at t=%.3f s\n", q,
                    static_cast<unsigned long long>(tenants.at(q).id),
                    MicrosToSeconds(engine.now()));
        std::fflush(stdout);
      }
      // Even after a successful attach the hello's source index may be out
      // of range for this workload; registration truth decides.
      return gateway.HasStream(stream_id);
    };
  }
  IngestServer server(server_config, &gateway);
  if (const Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "listen failed: %s\n", s.ToString().c_str());
    return 1;
  }
  if (coordinator != nullptr) {
    // Durable-epoch acks become CHECKPOINT_ACK frames on the stream's live
    // connection (a disconnected client catches up via HELLO_ACK instead).
    coordinator->SetAckCallback(
        [&server](uint32_t stream_id, uint64_t epoch, uint64_t durable_seq) {
          server.SendCheckpointAck(stream_id, epoch, durable_seq);
        });
  }
  // The hint is a command loadgen accepts, with every flag that decides
  // what the tenants' feeds carry; the rate prints in its shortest
  // round-trip form.
  char rate[32] = {};  // to_chars writes no terminator
  std::to_chars(rate, rate + sizeof(rate) - 1, config.events_per_second);
  std::printf("listening on 127.0.0.1:%u (%s mode%s); feed with e.g.\n"
              "  loadgen --port=%u --workload=%s --queries=%d --rate=%s "
              "--duration=%lld --delay=%s --seed=%llu\n",
              server.port(), lockstep ? "lockstep" : "real-time",
              dynamic_attach ? ", dynamic tenants" : "", server.port(),
              WorkloadFlagName(config.workload), config.num_queries, rate,
              static_cast<long long>(config.duration / 1000000),
              DelayFlagName(config.delay),
              static_cast<unsigned long long>(config.seed));
  // Harnesses (the kill-mid-run recovery test) read the port and the final
  // results_hash over a pipe; flush so they see the line promptly.
  std::fflush(stdout);

  // What the serve loop runs first in every iteration.
  const auto each_iteration = [&]() {
    // A dynamic tenant whose streams all said goodbye detaches once its
    // staged elements have all been ingested: the goodbye races ahead of
    // virtual time, and detaching earlier would cut the tenant's results
    // off at whatever instant the kBye happened to arrive. From here the
    // fabric drain takes over: queued work, including in-flight checkpoint
    // barriers, keeps being scheduled until the queues empty.
    for (auto& [q, t] : tenants) {
      if (!dynamic_attach) break;  // closed-world tenants never detach
      if (t.detached) continue;
      const bool drained = std::all_of(
          t.streams.begin(), t.streams.end(), [&gateway](uint32_t sid) {
            return gateway.end_of_stream(sid) &&
                   gateway.PeekIngestTime(sid) == kNoTime;
          });
      if (!drained) continue;
      engine.DetachQuery(t.id);
      t.detached = true;
      std::printf("tenant %d detached (query id %llu) at t=%.3f s\n", q,
                  static_cast<unsigned long long>(t.id),
                  MicrosToSeconds(engine.now()));
      std::fflush(stdout);
    }
    if (resharder != nullptr && engine.now() >= reshard.at) {
      // Re-request every iteration: RequestReshard refuses (returns false)
      // while a protocol is in flight — including one adopted from a
      // restored checkpoint — and once the query runs at the target, so
      // the trigger converges no matter where a crash interrupted it.
      for (const auto& [q, t] : tenants) {
        if (!t.detached) resharder->RequestReshard(t.id, reshard.target);
      }
    }
    // --expect-tenants keeps a blast-mode churn run deterministic: until
    // that many tenants have attached, virtual time holds, so a delayed
    // tenant's hello still lands inside the run however fast the others
    // blasted.
    return static_cast<int>(tenants.size()) < expect_tenants;
  };
  ServeIngest(&engine, &server, &gateway, coordinator.get(), config.duration,
              lockstep, each_iteration);

  const Histogram latency = engine.AggregateSwmLatency();
  TableReporter table("Results (TCP ingest)");
  table.SetHeader({"metric", "value"});
  table.AddRow(
      {"mean latency (s)", WindowCell(latency, latency.mean() / 1e6, 3)});
  table.AddRow({"p50 latency (s)",
                WindowCell(latency,
                           static_cast<double>(latency.Percentile(50)) / 1e6,
                           3)});
  table.AddRow({"p99 latency (s)",
                WindowCell(latency,
                           static_cast<double>(latency.Percentile(99)) / 1e6,
                           3)});
  table.AddRow({"ingested events",
                std::to_string(engine.metrics().ingested_events())});
  table.AddRow({"throughput (op-events/s)",
                TableReporter::Num(
                    engine.metrics().ThroughputEps(config.duration), 0)});
  table.AddRow({"slowdown", WindowCell(latency, engine.MeanSlowdown(), 0)});
  table.AddRow({"peak memory (MB)",
                TableReporter::Num(
                    static_cast<double>(engine.memory().peak_bytes()) /
                        1048576.0,
                    1)});
  table.Print();
  PrintIngestMetrics(gateway.metrics());
  std::vector<std::pair<int, QueryId>> tenant_ids;
  for (const auto& [q, t] : tenants) {
    PrintShardMetrics(engine, t.id);
    tenant_ids.emplace_back(q, t.id);
  }
  PrintLateEventMetrics(engine, tenant_ids);
  if (resharder != nullptr) {
    std::printf("reshards completed %lld\n",
                static_cast<long long>(resharder->completed_reshards()));
  }

  // Order-sensitive fingerprint of every tenant's results, folded in
  // tenant-index order (independent of attach order): two runs (e.g.
  // uninterrupted vs kill + --restore) produced byte-identical outputs iff
  // these lines match. Dynamic mode also prints per-tenant lines so churn
  // harnesses can compare surviving tenants across runs whose tenant sets
  // differ (a pre-checkpoint departure is absent after a restore).
  uint64_t combined = 14695981039346656037ull;
  int64_t results = 0;
  for (const auto& [q, t] : tenants) {
    const SinkOperator& sink = engine.query(t.id).sink();
    uint8_t word[8];
    const uint64_t h = sink.results_hash();
    if (dynamic_attach) {
      std::printf("results_hash q%d %016llx\n", q,
                  static_cast<unsigned long long>(h));
    }
    for (int i = 0; i < 8; ++i) word[i] = static_cast<uint8_t>(h >> (8 * i));
    combined = Fnv1aBytes(word, sizeof(word), combined);
    results += sink.results_received();
  }
  std::printf("results %lld\n", static_cast<long long>(results));
  std::printf("results_hash %016llx\n",
              static_cast<unsigned long long>(combined));
  if (coordinator != nullptr) {
    std::printf("checkpoint durable_epoch %llu\n",
                static_cast<unsigned long long>(
                    coordinator->last_durable_epoch()));
  }
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc - 1, argv + 1).ok()) return Usage();
  if (flags.Has("help")) return Usage();

  // Bad input is a usage error: name the flag, print the usage, exit 2.
  // Every flag is validated before listen mode creates --checkpoint-dir.
  const auto reject = [](const std::string& message) {
    std::fprintf(stderr, "%s\n", message.c_str());
    return Usage();
  };
  // Exactly the flags Usage() lists.
  if (const Status st = flags.CheckKnown(
          {"policy", "workload", "queries", "rate", "delay", "duration",
           "allowed-lateness-ms", "warmup", "cores", "memory-mb", "executor",
           "confidence", "seed", "csv", "shards", "max-shards", "listen",
           "ingest-budget-kb", "lockstep", "dynamic-attach", "expect-tenants",
           "checkpoint-dir", "checkpoint-interval-ms", "restore", "reshard"});
      !st.ok()) {
    return reject(st.message());
  }

  ExperimentConfig config;
  if (!ParsePolicy(flags.GetString("policy", "klink"), &config.policy)) {
    return reject("unknown --policy");
  }
  if (!ParseWorkloadFlag(flags.GetString("workload", "ysb"),
                         &config.workload)) {
    return reject("unknown --workload");
  }
  if (!ParseDelayFlag(flags.GetString("delay", "uniform"), &config.delay)) {
    return reject("unknown --delay");
  }
  std::string executor_name;
  if (!flags.GetChoice("executor", {"sequential", "threads"}, "sequential",
                       &executor_name)
           .ok() ||
      !ParseExecutorKind(executor_name, &config.engine.executor)) {
    return reject("unknown --executor");
  }
  // Numeric and boolean flags parse whole or not at all: a malformed or
  // out-of-range value is a usage error naming the flag. Unit conversions
  // are range-checked before they multiply.
  int64_t duration_s = 0, warmup_s = 0, memory_mb = 0, seed = 0;
  int64_t lateness_ms = 0;
  bool lockstep = false, dynamic_attach = false, restore = false;
  for (const Status& st :
       {flags.GetInt("queries", 20, &config.num_queries),
        flags.GetDouble("rate", 1000.0, &config.events_per_second),
        flags.GetInt("duration", 120, &duration_s),
        flags.GetInt("warmup", 30, &warmup_s),
        flags.GetInt("cores", 8, &config.engine.num_cores),
        flags.GetInt("memory-mb", 16, &memory_mb),
        flags.GetDouble("confidence", 0.95, &config.klink.confidence),
        flags.GetInt("seed", 1, &seed),
        flags.GetInt("allowed-lateness-ms", 0, &lateness_ms),
        flags.GetInt("shards", 1, &config.shards),
        flags.GetInt("max-shards", 0, &config.max_shards),
        flags.GetBool("lockstep", false, &lockstep),
        flags.GetBool("dynamic-attach", false, &dynamic_attach),
        flags.GetBool("restore", false, &restore),
        CheckScaled("duration", duration_s, SecondsToMicros(1)),
        CheckScaled("warmup", warmup_s, SecondsToMicros(1)),
        CheckScaled("memory-mb", memory_mb, int64_t{1} << 20),
        CheckScaled("allowed-lateness-ms", lateness_ms, MillisToMicros(1))}) {
    if (!st.ok()) return reject(st.message());
  }
  // The server's flags would be silently ignored by an in-process run,
  // and the in-process run's warm-up cut and CSV report by the server.
  if (!flags.Has("listen")) {
    for (const char* name :
         {"ingest-budget-kb", "lockstep", "dynamic-attach", "expect-tenants",
          "checkpoint-dir", "checkpoint-interval-ms", "restore", "reshard"}) {
      if (flags.Has(name)) {
        return reject(std::string("--") + name + " requires --listen");
      }
    }
  } else {
    for (const char* name : {"warmup", "csv"}) {
      if (flags.Has(name)) {
        return reject(std::string("--") + name +
                      " applies to in-process runs, not to --listen");
      }
    }
  }
  config.duration = SecondsToMicros(duration_s);
  config.warmup = SecondsToMicros(warmup_s);
  config.engine.memory_capacity_bytes = memory_mb << 20;
  config.seed = static_cast<uint64_t>(seed);
  if (lateness_ms < 0) return reject("--allowed-lateness-ms must be >= 0");
  config.allowed_lateness = MillisToMicros(lateness_ms);
  // Both modes build their queries from these, so both check them here.
  if (config.shards < 1 || config.shards > kMaxShards) {
    return reject("--shards must lie in [1, " + std::to_string(kMaxShards) +
                  "]");
  }
  if (config.max_shards != 0 && (config.max_shards < config.shards ||
                                 config.max_shards > kMaxShards)) {
    return reject("--max-shards must be 0 or lie in [--shards, " +
                  std::to_string(kMaxShards) + "]");
  }
  if (config.workload == WorkloadKind::kLrb &&
      (config.shards > 1 || config.max_shards > 1)) {
    return reject(std::string(config.shards > 1 ? "--shards" : "--max-shards") +
                  " above 1 needs --workload=ysb or nyt: lrb's windowed "
                  "join builds no shard region");
  }
  // Listen mode has no warm-up cut (its report covers the whole run), so
  // only the engine's and the policy's fields constrain it.
  const auto validate = [&]() -> Status {
    if (!flags.Has("listen")) return config.Validate();
    const Status engine = config.engine.Validate();
    return engine.ok() ? config.klink.Validate() : engine;
  };
  const Status valid = validate();
  if (!valid.ok()) return reject(valid.message());

  if (flags.Has("listen")) {
    int port = 0, expect_tenants = 0;
    int64_t budget_kb = 0, interval_ms = 0;
    for (const Status& st :
         {flags.GetInt("listen", 0, &port),
          flags.GetInt("ingest-budget-kb", 4096, &budget_kb),
          flags.GetInt("checkpoint-interval-ms", 1000, &interval_ms),
          flags.GetInt("expect-tenants", 0, &expect_tenants),
          CheckScaled("ingest-budget-kb", budget_kb, int64_t{1} << 10),
          CheckScaled("checkpoint-interval-ms", interval_ms,
                      MillisToMicros(1))}) {
      if (!st.ok()) return reject(st.message());
    }
    if (port < 0 || port > 65535) {
      return reject("--listen must be a port in [0, 65535]");
    }
    // Tenant indexes lie in [0, --queries), also under --dynamic-attach.
    if (config.num_queries < 1) return reject("--queries must be >= 1");
    // The feed hint passes these to loadgen, which checks both the same
    // way.
    if (const Status rate = ValidateEventRate(config.events_per_second);
        !rate.ok()) {
      return reject(rate.message());
    }
    if (duration_s < 1) return reject("--duration must be >= 1");
    // More expected tenants than can attach would hold virtual time
    // forever.
    if (expect_tenants < 0 || expect_tenants > config.num_queries) {
      return reject("--expect-tenants must lie in [0, --queries]");
    }
    if (budget_kb < 1) return reject("--ingest-budget-kb must be >= 1");
    if (interval_ms < 1) {
      return reject("--checkpoint-interval-ms must be >= 1");
    }
    CheckpointFlags ckpt;
    ckpt.dir = flags.GetString("checkpoint-dir", "");
    ckpt.interval = MillisToMicros(interval_ms);
    ckpt.restore = restore;
    ReshardFlags reshard;
    const std::string reshard_spec = flags.GetString("reshard", "");
    if (!reshard_spec.empty()) {
      const size_t at = reshard_spec.find('@');
      if (at == std::string::npos) {
        return reject("--reshard expects COUNT@SECONDS");
      }
      int64_t count = 0;
      double seconds = 0.0;
      for (const Status& st :
           {ParseIntFlag("reshard", reshard_spec.substr(0, at), &count),
            ParseDoubleFlag("reshard", reshard_spec.substr(at + 1),
                            &seconds)}) {
        if (!st.ok()) return reject(st.message());
      }
      if (count < 1 || count > std::numeric_limits<int>::max()) {
        return reject("--reshard expects an int COUNT >= 1");
      }
      if (seconds < 0.0) return reject("--reshard expects SECONDS >= 0");
      // Range-checked before the conversion to micros.
      if (seconds > static_cast<double>(std::numeric_limits<int64_t>::max() /
                                        SecondsToMicros(1))) {
        return reject("--reshard SECONDS is out of range");
      }
      reshard.target = static_cast<int>(count);
      reshard.at = static_cast<TimeMicros>(seconds * 1e6);
    }
    // A restore reads checkpoints, and live re-sharding pauses at their
    // barriers.
    if (ckpt.dir.empty() && ckpt.restore) {
      return reject("--restore requires --checkpoint-dir");
    }
    if (ckpt.dir.empty() && reshard.target > 0) {
      return reject("--reshard requires --checkpoint-dir");
    }
    if (!ckpt.dir.empty()) {
      // Create the directory (not its parents) and insist on a directory,
      // or every epoch would fail to persist and none would ever be acked.
      ::mkdir(ckpt.dir.c_str(), 0755);  // may already exist; stat decides
      struct stat st {};
      if (::stat(ckpt.dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
        return reject("--checkpoint-dir " + ckpt.dir +
                      " is not a usable directory");
      }
    }
    std::printf("serving %s on %s: %d queries, %d cores (%s executor), "
                "%lld MB, seed %llu\n",
                PolicyKindName(config.policy),
                WorkloadKindName(config.workload), config.num_queries,
                config.engine.num_cores,
                ExecutorKindName(config.engine.executor),
                static_cast<long long>(config.engine.memory_capacity_bytes >>
                                       20),
                static_cast<unsigned long long>(config.seed));
    return RunListenMode(config, static_cast<uint16_t>(port), budget_kb << 10,
                         lockstep, dynamic_attach, expect_tenants, ckpt,
                         reshard);
  }

  std::printf("running %s on %s: %d queries x %.0f events/s, %lld s "
              "(%lld s warm-up), %d cores (%s executor), %lld MB, %s delay, "
              "seed %llu\n",
              PolicyKindName(config.policy), WorkloadKindName(config.workload),
              config.num_queries, config.events_per_second,
              static_cast<long long>(config.duration / 1000000),
              static_cast<long long>(config.warmup / 1000000),
              config.engine.num_cores,
              ExecutorKindName(config.engine.executor),
              static_cast<long long>(config.engine.memory_capacity_bytes >>
                                     20),
              DelayKindName(config.delay),
              static_cast<unsigned long long>(config.seed));

  const ExperimentResult r = RunExperiment(config);
  if (r.undeployed_queries > 0) {
    std::fprintf(stderr,
                 "warning: %d of %d queries deploy at or after --duration=%lld "
                 "s (deploys spread over the first %lld s) and never run\n",
                 r.undeployed_queries, config.num_queries,
                 static_cast<long long>(config.duration / 1000000),
                 static_cast<long long>(config.deploy_spread / 1000000));
  }

  TableReporter table("Results");
  table.SetHeader({"metric", "value"});
  table.AddRow(
      {"mean latency (s)", WindowCell(r.latency, r.mean_latency_s, 3)});
  table.AddRow({"p50 latency (s)", WindowCell(r.latency, r.p50_latency_s, 3)});
  table.AddRow({"p90 latency (s)", WindowCell(r.latency, r.p90_latency_s, 3)});
  table.AddRow({"p99 latency (s)", WindowCell(r.latency, r.p99_latency_s, 3)});
  table.AddRow({"throughput (op-events/s)",
                TableReporter::Num(r.throughput_eps, 0)});
  table.AddRow({"slowdown", WindowCell(r.latency, r.slowdown, 0)});
  table.AddRow({"mean CPU (%)",
                TableReporter::Num(r.mean_cpu_utilization * 100.0, 1)});
  table.AddRow({"mean memory (MB)",
                TableReporter::Num(r.mean_memory_bytes / 1048576.0, 1)});
  table.AddRow({"peak memory (MB)",
                TableReporter::Num(
                    static_cast<double>(r.peak_memory_bytes) / 1048576.0, 1)});
  table.AddRow({"scheduler overhead (%)",
                TableReporter::Num(r.scheduler_overhead * 100.0, 3)});
  if (r.estimator_predictions > 0) {
    table.AddRow({"SWM estimation accuracy (%)",
                  TableReporter::Num(r.estimator_accuracy * 100.0, 1)});
    table.AddRow({"SWM estimation MAE (s)",
                  TableReporter::Num(r.estimator_mae_s, 3)});
  }
  if (config.allowed_lateness > 0) {
    table.AddRow({"late accepted", std::to_string(r.late.late_accepted)});
    table.AddRow({"late dropped (beyond horizon)",
                  std::to_string(r.late.late_dropped_beyond_horizon)});
    table.AddRow({"retractions emitted",
                  std::to_string(r.late.retractions_emitted)});
    table.AddRow({"updates emitted",
                  std::to_string(r.late.updates_emitted)});
  }
  table.Print();

  const std::string csv = flags.GetString("csv", "");
  if (!csv.empty() && !table.WriteCsv(csv)) {
    std::fprintf(stderr, "failed to write %s\n", csv.c_str());
    return 1;
  }
  return 0;
}
