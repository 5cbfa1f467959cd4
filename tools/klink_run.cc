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
// arrived (per-stream arrival watermarks), making a blast-mode loadgen
// replay deterministic — the networked run produces the same results as
// the equivalent in-process run.
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
// raises the re-shard ceiling above the initial count); results are
// byte-identical to the unsharded run. In listen mode with checkpoints,
// --reshard=COUNT@SECONDS re-partitions every query's keyed state to
// COUNT active shards at the first barrier after the given virtual time —
// while the run keeps going — and --hot-reshard doubles a query's active
// shards automatically when one shard's backlog stays far above the mean.
// A per-shard metrics table prints at the end of listen-mode runs.

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
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
#include "src/runtime/checkpoint.h"
#include "src/runtime/engine.h"
#include "src/runtime/reshard.h"
#include "src/workloads/lrb.h"
#include "src/workloads/nyt.h"
#include "src/workloads/ysb.h"

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

bool ParseWorkload(const std::string& s, WorkloadKind* out) {
  if (s == "ysb") *out = WorkloadKind::kYsb;
  else if (s == "lrb") *out = WorkloadKind::kLrb;
  else if (s == "nyt") *out = WorkloadKind::kNyt;
  else return false;
  return true;
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
      "                   [--restore] [--reshard=COUNT@SECONDS]\n"
      "                   [--hot-reshard]]]\n");
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

int64_t WallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Formats the latency and slowdown cells of a results table. With no
/// completed window the SWM latency histogram is empty and its zeros would
/// read as perfect latency, so the cells say so instead.
struct WindowCell {
  bool any_completed;
  std::string Num(double value, int precision) const {
    return any_completed ? TableReporter::Num(value, precision)
                         : "n/a (no completed windows)";
  }
};

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
  int target = 0;          // 0 = no explicit re-shard
  TimeMicros at = 0;       // virtual trigger time
  bool hot_trigger = false;  // --hot-reshard: double hot queries' shards
};

/// One tenant of the listen-mode server: a query index in
/// [0, --queries), its deployed (generation-stamped) query id, and the
/// gateway streams feeding its sources.
struct Tenant {
  QueryId id = 0;
  std::vector<uint32_t> streams;
  /// Streams that have seen kBye; the tenant drain-detaches once all have.
  std::set<uint32_t> ended;
  /// All streams ended; detach once the gateway staging drains.
  bool detach_pending = false;
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

  // Same per-tenant workload parameters as the in-process harness (same
  // rng stream), drawn up front for every index: in dynamic-attach mode
  // tenants deploy in network arrival order, which must never perturb
  // another tenant's window offset.
  IngestGateway gateway;
  Rng rng(config.seed);
  std::vector<DurationMicros> window_offsets;
  window_offsets.reserve(static_cast<size_t>(config.num_queries));
  for (int q = 0; q < config.num_queries; ++q) {
    const uint64_t feed_seed = rng.NextUint64();
    (void)feed_seed;  // consumed by the loadgen side
    DurationMicros range = 0;
    switch (config.workload) {
      case WorkloadKind::kYsb: range = YsbConfig{}.window_size; break;
      case WorkloadKind::kLrb: range = LrbConfig{}.join_window; break;
      case WorkloadKind::kNyt: range = NytConfig{}.slide; break;
    }
    window_offsets.push_back(rng.NextInt(0, range - 1));
  }
  auto build_query = [&](int q) {
    std::unique_ptr<Query> query;
    switch (config.workload) {
      case WorkloadKind::kYsb: {
        YsbConfig wc;
        wc.events_per_second = config.events_per_second;
        wc.watermark_lag = WatermarkLagFor(config.delay);
        wc.window_offset = window_offsets[static_cast<size_t>(q)];
        wc.shards = config.shards;
        wc.max_shards = config.max_shards;
        wc.allowed_lateness = config.allowed_lateness;
        query = MakeYsbQuery(q, wc);
        break;
      }
      case WorkloadKind::kLrb: {
        LrbConfig wc;
        wc.events_per_substream_per_second = config.events_per_second;
        wc.watermark_lag = WatermarkLagFor(config.delay);
        wc.window_offset = window_offsets[static_cast<size_t>(q)];
        wc.allowed_lateness = config.allowed_lateness;
        query = MakeLrbQuery(q, wc);
        break;
      }
      case WorkloadKind::kNyt: {
        NytConfig wc;
        wc.events_per_second = config.events_per_second;
        wc.watermark_lag = WatermarkLagFor(config.delay);
        wc.window_offset = window_offsets[static_cast<size_t>(q)];
        wc.shards = config.shards;
        wc.max_shards = config.max_shards;
        wc.allowed_lateness = config.allowed_lateness;
        query = MakeNytQuery(q, wc);
        break;
      }
    }
    return query;
  };

  std::unique_ptr<CheckpointCoordinator> coordinator;
  if (!ckpt.dir.empty()) {
    CheckpointConfig cc;
    cc.dir = ckpt.dir;
    cc.interval = ckpt.interval;
    coordinator = std::make_unique<CheckpointCoordinator>(cc);
  } else if (ckpt.restore) {
    std::fprintf(stderr, "--restore requires --checkpoint-dir\n");
    return 2;
  }

  // Live re-sharding pauses at checkpoint barriers, so the protocol only
  // runs when a coordinator injects them.
  std::unique_ptr<ReshardController> resharder;
  if (reshard.target > 0 || reshard.hot_trigger) {
    if (coordinator == nullptr) {
      std::fprintf(stderr, "--reshard/--hot-reshard require --checkpoint-dir\n");
      return 2;
    }
    resharder = std::make_unique<ReshardController>(&engine);
    if (reshard.hot_trigger) resharder->EnableHotShardTrigger();
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
    std::unique_ptr<Query> query = build_query(q);
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
  // hello reads them back via HELLO_ACK.
  if (coordinator != nullptr) {
    if (ckpt.restore) {
      LoadedCheckpoint loaded;
      if (LoadLatestCheckpoint(ckpt.dir, &loaded)) {
        for (const LoadedQueryState& qs : loaded.queries) {
          QueryId target = qs.query_id;
          if (dynamic_attach) {
            // Checkpointed tenants re-deploy before serving; the tenant
            // index is recoverable from any cursor's stream id. The fresh
            // attach may stamp a different generation than the captured
            // id, so state restores into the new id.
            KLINK_CHECK(!qs.cursors.empty());
            const int q =
                static_cast<int>(qs.cursors[0].first / kStreamsPerQuery);
            KLINK_CHECK(attach_tenant(q));
            target = tenants.at(q).id;
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
    server_config.on_stream_end = [&](uint32_t stream_id) {
      const int q = static_cast<int>(stream_id / kStreamsPerQuery);
      const auto it = tenants.find(q);
      if (it == tenants.end() || it->second.detached) return;
      Tenant& t = it->second;
      if (!t.ended.insert(stream_id).second) return;  // repeat kBye
      if (t.ended.size() < t.streams.size()) return;
      // Every stream said goodbye. Don't detach yet: the goodbye raced
      // ahead of virtual time, and elements still staged in the gateway
      // must ingest first or the tenant's results would cut off at
      // whatever instant the kBye happened to arrive (wall-clock
      // dependent). The run loop detaches once staging drains.
      t.detach_pending = true;
    };
  }
  IngestServer server(server_config, &gateway);
  // Detach goodbye'd tenants whose staged elements have all been ingested;
  // called every run-loop iteration. From here the fabric drain takes
  // over: queued work — including in-flight checkpoint barriers — keeps
  // being scheduled until the queues empty, then the query retires.
  auto sweep_detach = [&]() {
    for (auto& [q, t] : tenants) {
      if (!t.detach_pending || t.detached) continue;
      bool staged_empty = true;
      for (const uint32_t sid : t.streams) {
        if (gateway.PeekIngestTime(sid) != kNoTime) {
          staged_empty = false;
          break;
        }
      }
      if (!staged_empty) continue;
      engine.DetachQuery(t.id);
      t.detached = true;
      std::printf("tenant %d detached (query id %llu) at t=%.3f s\n", q,
                  static_cast<unsigned long long>(t.id),
                  MicrosToSeconds(engine.now()));
      std::fflush(stdout);
    }
  };
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
  std::printf("listening on 127.0.0.1:%u (%s mode%s); feed with e.g.\n"
              "  loadgen --port=%u --workload=%s --queries=%d --rate=%.0f "
              "--duration=%lld\n",
              server.port(), lockstep ? "lockstep" : "real-time",
              dynamic_attach ? ", dynamic tenants" : "",
              server.port(), WorkloadKindName(config.workload),
              config.num_queries, config.events_per_second,
              static_cast<long long>(config.duration / 1000000));
  // Harnesses (the kill-mid-run recovery test) read the port and the final
  // results_hash over a pipe; flush so they see the line promptly.
  std::fflush(stdout);

  const DurationMicros cycle = config.engine.cycle_length;
  const int64_t wall_start = WallMicros();
  while (engine.now() < config.duration) {
    if (dynamic_attach) sweep_detach();
    if (resharder != nullptr && reshard.target > 0 &&
        engine.now() >= reshard.at) {
      // Re-request every iteration: RequestReshard refuses (returns false)
      // while a protocol is in flight — including one adopted from a
      // restored checkpoint — and once the query runs at the target, so
      // the trigger converges no matter where a crash interrupted it.
      for (const auto& [q, t] : tenants) {
        if (!t.detached) resharder->RequestReshard(t.id, reshard.target);
      }
    }
    if (lockstep) {
      // Run only through prefixes every live tenant's streams have fully
      // delivered, so results are independent of network timing. Once all
      // clients are gone (finished or died), drain whatever arrived.
      TimeMicros safe = std::numeric_limits<TimeMicros>::max();
      bool any_live_stream = false;
      for (const auto& [q, t] : tenants) {
        if (t.detached) continue;
        for (const uint32_t sid : t.streams) {
          safe = std::min(safe, gateway.StagedThrough(sid));
          any_live_stream = true;
        }
      }
      // --expect-tenants keeps a blast-mode churn run deterministic: until
      // that many tenants have attached, the server neither declares the
      // clients gone nor runs ahead to the end of the run — it holds
      // virtual time and keeps serving, so a delayed tenant's hello still
      // lands inside the run no matter how fast the others blasted.
      const bool all_expected =
          static_cast<int>(tenants.size()) >= expect_tenants;
      const bool clients_done = all_expected &&
                                gateway.metrics().connections_accepted() >
                                    0 &&
                                server.num_connections() == 0;
      if (clients_done) {
        safe = std::numeric_limits<TimeMicros>::max();
      } else if (!all_expected || !any_live_stream) {
        // Expected tenants still missing, or dynamic mode before the
        // first tenant (or between tenants): arrival progress isn't fully
        // bounded yet, so hold virtual time and poll.
        safe = engine.now();
      }
      if (safe >= config.duration) {
        // Final drain, still a cycle per iteration: the detach sweep must
        // keep running so a tenant whose goodbye arrived just before the
        // clients finished retires as soon as its queues drain, not at
        // end-of-run. (RunUntil runs whole cycles either way, so chunking
        // the advance does not change what executes.)
        engine.RunUntil(std::min(config.duration, engine.now() + cycle));
        continue;
      }
      if (engine.now() + cycle <= safe) {
        engine.RunUntil(engine.now() + cycle);
        continue;
      }
      if (coordinator != nullptr) coordinator->DeliverDurableEpochs();
      server.PollOnce(10);
    } else {
      // Real time: virtual now tracks the wall clock, so delayed and
      // out-of-order TCP arrivals are genuinely late for the scheduler.
      const TimeMicros elapsed = WallMicros() - wall_start;
      if (elapsed >= config.duration) {
        engine.RunUntil(config.duration);  // final (possibly partial) step
        continue;
      }
      if (engine.now() + cycle <= elapsed) {
        engine.RunUntil(elapsed);
        continue;
      }
      if (coordinator != nullptr) coordinator->DeliverDurableEpochs();
      server.PollOnce(
          static_cast<int>((cycle - (elapsed - engine.now())) / 1000 + 1));
    }
  }
  // Lockstep runs drain to empty before reporting. Two runs of the same
  // stream compare byte-identically only over their complete output: a
  // crash + --restore, or a re-shard pausing at a different barrier,
  // legitimately shifts WHEN queued work is absorbed, so cutting the run
  // at a fixed virtual time would fingerprint whatever tail each run
  // happened not to have drained yet.
  if (lockstep) {
    const TimeMicros drain_deadline = engine.now() + SecondsToMicros(60);
    // Count gateway-staged events alongside engine queues: a delayed tail
    // (ingest_time past the current virtual now) is otherwise cut off the
    // moment the engine queues happen to empty, fingerprinting the run.
    const auto pending_total = [&tenants, &engine, &gateway]() {
      int64_t total = 0;
      for (const auto& [q, t] : tenants) {
        if (t.detached) continue;
        total += engine.query(t.id).QueuedEvents();
        for (const uint32_t sid : t.streams) {
          total += gateway.staged_events(sid);
        }
      }
      return total;
    };
    while ((server.num_connections() > 0 || pending_total() > 0) &&
           engine.now() < drain_deadline) {
      if (dynamic_attach) sweep_detach();
      // Paced clients may still be flushing their post-duration delay
      // tail; keep reading so it lands in the drain instead of in flight.
      if (server.num_connections() > 0) server.PollOnce(0);
      engine.RunUntil(engine.now() + cycle);
    }
  }
  // Persist and ack every aligned epoch while the server can still send.
  if (coordinator != nullptr) coordinator->Flush();
  server.Stop();

  const Histogram latency = engine.AggregateSwmLatency();
  const WindowCell cell{latency.count() > 0};
  TableReporter table("Results (TCP ingest)");
  table.SetHeader({"metric", "value"});
  table.AddRow({"mean latency (s)", cell.Num(latency.mean() / 1e6, 3)});
  table.AddRow({"p50 latency (s)",
                cell.Num(static_cast<double>(latency.Percentile(50)) / 1e6,
                         3)});
  table.AddRow({"p99 latency (s)",
                cell.Num(static_cast<double>(latency.Percentile(99)) / 1e6,
                         3)});
  table.AddRow({"ingested events",
                std::to_string(engine.metrics().ingested_events())});
  table.AddRow({"throughput (op-events/s)",
                TableReporter::Num(
                    engine.metrics().ThroughputEps(config.duration), 0)});
  table.AddRow({"slowdown", cell.Num(engine.MeanSlowdown(), 0)});
  table.AddRow({"peak memory (MB)",
                TableReporter::Num(
                    static_cast<double>(engine.memory().peak_bytes()) /
                        1048576.0,
                    1)});
  table.Print();
  PrintIngestMetrics(gateway.metrics());
  for (const auto& [q, t] : tenants) PrintShardMetrics(engine, t.id);
  PrintLateEventMetrics(engine);
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

  ExperimentConfig config;
  if (!ParsePolicy(flags.GetString("policy", "klink"), &config.policy)) {
    std::fprintf(stderr, "unknown --policy\n");
    return Usage();
  }
  if (!ParseWorkload(flags.GetString("workload", "ysb"), &config.workload)) {
    std::fprintf(stderr, "unknown --workload\n");
    return Usage();
  }
  const std::string delay = flags.GetString("delay", "uniform");
  if (delay == "uniform") {
    config.delay = DelayKind::kUniform;
  } else if (delay == "zipf") {
    config.delay = DelayKind::kZipf;
  } else if (delay == "pareto") {
    config.delay = DelayKind::kPareto;
  } else {
    std::fprintf(stderr, "unknown --delay\n");
    return Usage();
  }
  std::string executor_name;
  if (!flags.GetChoice("executor", {"sequential", "threads"}, "sequential",
                       &executor_name)
           .ok() ||
      !ParseExecutorKind(executor_name, &config.engine.executor)) {
    std::fprintf(stderr, "unknown --executor\n");
    return Usage();
  }
  // Numeric flags parse whole or not at all: a malformed or out-of-range
  // value is a usage error naming the flag. Unit conversions are
  // range-checked before they multiply.
  int64_t duration_s = 0, warmup_s = 0, memory_mb = 0, seed = 0;
  int64_t lateness_ms = 0;
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
        CheckScaled("duration", duration_s, SecondsToMicros(1)),
        CheckScaled("warmup", warmup_s, SecondsToMicros(1)),
        CheckScaled("memory-mb", memory_mb, int64_t{1} << 20),
        CheckScaled("allowed-lateness-ms", lateness_ms, MillisToMicros(1))}) {
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.message().c_str());
      return Usage();
    }
  }
  config.duration = SecondsToMicros(duration_s);
  config.warmup = SecondsToMicros(warmup_s);
  config.engine.memory_capacity_bytes = memory_mb << 20;
  config.seed = static_cast<uint64_t>(seed);
  if (lateness_ms < 0) {
    std::fprintf(stderr, "--allowed-lateness-ms must be >= 0\n");
    return Usage();
  }
  config.allowed_lateness = MillisToMicros(lateness_ms);
  if (config.shards < 1 ||
      (config.max_shards != 0 && config.max_shards < config.shards)) {
    std::fprintf(stderr, "--max-shards must be 0 or >= --shards (>= 1)\n");
    return Usage();
  }
  // Listen mode has no warm-up cut (its report covers the whole run), so
  // only the engine's and the policy's fields constrain it.
  const auto validate = [&]() -> Status {
    if (!flags.Has("listen")) return config.Validate();
    const Status engine = config.engine.Validate();
    return engine.ok() ? config.klink.Validate() : engine;
  };
  const Status valid = validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.message().c_str());
    return Usage();
  }

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
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.message().c_str());
        return Usage();
      }
    }
    if (port < 0 || port > 65535) {
      std::fprintf(stderr, "--listen must be a port in [0, 65535]\n");
      return Usage();
    }
    // Tenant indexes lie in [0, --queries), also under --dynamic-attach.
    if (config.num_queries < 1) {
      std::fprintf(stderr, "--queries must be >= 1\n");
      return Usage();
    }
    if (budget_kb < 1) {
      std::fprintf(stderr, "--ingest-budget-kb must be >= 1\n");
      return Usage();
    }
    if (interval_ms < 1) {
      std::fprintf(stderr, "--checkpoint-interval-ms must be >= 1\n");
      return Usage();
    }
    CheckpointFlags ckpt;
    ckpt.dir = flags.GetString("checkpoint-dir", "");
    ckpt.interval = MillisToMicros(interval_ms);
    ckpt.restore = flags.GetBool("restore", false);
    if (!ckpt.dir.empty()) {
      // Create the directory (not its parents) and insist on a directory,
      // or every epoch would fail to persist and none would ever be acked.
      ::mkdir(ckpt.dir.c_str(), 0755);  // may already exist; stat decides
      struct stat st {};
      if (::stat(ckpt.dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
        std::fprintf(stderr, "--checkpoint-dir %s is not a usable directory\n",
                     ckpt.dir.c_str());
        return Usage();
      }
    }
    ReshardFlags reshard;
    reshard.hot_trigger = flags.GetBool("hot-reshard", false);
    const std::string reshard_spec = flags.GetString("reshard", "");
    if (!reshard_spec.empty()) {
      const size_t at = reshard_spec.find('@');
      if (at == std::string::npos) {
        std::fprintf(stderr, "--reshard expects COUNT@SECONDS\n");
        return Usage();
      }
      reshard.target = std::atoi(reshard_spec.substr(0, at).c_str());
      reshard.at = static_cast<TimeMicros>(
          std::atof(reshard_spec.substr(at + 1).c_str()) * 1e6);
      if (reshard.target < 1) {
        std::fprintf(stderr, "--reshard expects COUNT >= 1\n");
        return Usage();
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
                         flags.GetBool("lockstep", false),
                         flags.GetBool("dynamic-attach", false),
                         expect_tenants, ckpt, reshard);
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

  const WindowCell cell{r.latency.count() > 0};
  TableReporter table("Results");
  table.SetHeader({"metric", "value"});
  table.AddRow({"mean latency (s)", cell.Num(r.mean_latency_s, 3)});
  table.AddRow({"p50 latency (s)", cell.Num(r.p50_latency_s, 3)});
  table.AddRow({"p90 latency (s)", cell.Num(r.p90_latency_s, 3)});
  table.AddRow({"p99 latency (s)", cell.Num(r.p99_latency_s, 3)});
  table.AddRow({"throughput (op-events/s)",
                TableReporter::Num(r.throughput_eps, 0)});
  table.AddRow({"slowdown", cell.Num(r.slowdown, 0)});
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
