// loadgen: TCP workload replayer for a klink_run --listen server. Builds
// the same synthetic YSB/LRB/NYT feeds the in-process harness uses —
// including the paper's artificial network-delay models, now applied as a
// per-connection delay before frames hit the real socket — and streams
// them over the ingest wire protocol, one connection per (query, source).
//
//   klink_run --listen=9099 --workload=ysb --queries=4 &
//   loadgen --port=9099 --workload=ysb --queries=4 --rate=1000
//           --delay=uniform --duration=30 [--speed=1] [--seed=1]
//           [--max-retries=N]
//
// --speed=1 replays in real time (one virtual second per wall second);
// --speed=0 blasts the run as fast as TCP accepts it, generating and
// sending it in 100 ms slices of virtual time (throughput testing against
// a --lockstep server).
//
// --max-retries=N arms connect/reconnect retries with exponential backoff
// + jitter: a refused initial connect is re-dialed, and a connection lost
// mid-replay (server crash) is re-established with the unacked tail
// replayed from the retention buffer — together with the server-side
// sequence dedup and checkpoint acks this gives exactly-once delivery
// across a server kill + --restore.
//
// Tenant churn (against a klink_run --dynamic-attach server):
// --churn-detach=K makes the first K tenants replay only the first half
// of the run and then send kBye (the server drain-detaches them);
// --churn-attach=K makes the last K tenants delay their first connect by
// --churn-delay-ms of wall time (default 500), so their hello — and the
// server-side live attach it triggers — lands mid-run.

#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/harness/experiment.h"
#include "src/net/delay_model.h"
#include "src/net/ingest_gateway.h"
#include "src/net/loadgen.h"

namespace {

using namespace klink;

int Usage() {
  std::fprintf(
      stderr,
      "usage: loadgen --port=PORT [--host=127.0.0.1]\n"
      "               [--workload=ysb|lrb|nyt] [--queries=N] [--rate=EPS]\n"
      "               [--delay=none|uniform|zipf|pareto] [--duration=SECONDS]\n"
      "               [--delay-pareto=ALPHA,SCALE_MS]\n"
      "               [--speed=X] [--seed=N] [--max-retries=N]\n"
      "               [--key-skew=S]\n"
      "               [--churn-detach=K] [--churn-attach=K]\n"
      "               [--churn-delay-ms=N]\n");
  return 2;
}

struct QueryReplay {
  int query_index = 0;
  std::unique_ptr<EventFeed> feed;
  std::vector<std::unique_ptr<LoadgenConnection>> conns;
  std::vector<uint32_t> stream_ids;
  /// Wall-clock delay before this tenant's first connect (--churn-attach).
  int64_t connect_delay_ms = 0;
  /// Replay elements with ingest_time <= this (--churn-detach halves it).
  TimeMicros until = 0;
  Status result;
};

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc - 1, argv + 1).ok()) return Usage();
  if (flags.Has("help")) return Usage();

  // Bad input is a usage error: name the flag, print the usage, exit 2.
  const auto reject = [](const std::string& message) {
    std::fprintf(stderr, "%s\n", message.c_str());
    return Usage();
  };
  // Exactly the flags Usage() lists.
  if (const Status st = flags.CheckKnown(
          {"port", "host", "workload", "queries", "rate", "delay", "duration",
           "delay-pareto", "speed", "seed", "max-retries", "key-skew",
           "churn-detach", "churn-attach", "churn-delay-ms"});
      !st.ok()) {
    return reject(st.message());
  }
  if (!flags.Has("port")) return Usage();
  const std::string host = flags.GetString("host", "127.0.0.1");
  int port_flag = 0, num_queries = 0, churn_detach = 0, churn_attach = 0;
  double rate = 0.0, speed = 0.0;
  // Zipf exponent for key draws (0 = uniform); skewed keys concentrate
  // load on one shard of a server-side sharded keyed operator.
  double key_skew = 0.0;
  int64_t duration_s = 0, seed = 0, churn_delay_ms = 0;
  RetryPolicy retry;
  // Numeric flags parse whole or not at all.
  for (const Status& st :
       {flags.GetInt("port", 0, &port_flag),
        flags.GetInt("queries", 1, &num_queries),
        flags.GetDouble("rate", 1000.0, &rate),
        flags.GetInt("duration", 30, &duration_s),
        flags.GetDouble("speed", 1.0, &speed), flags.GetInt("seed", 1, &seed),
        flags.GetInt("max-retries", 0, &retry.max_retries),
        flags.GetInt("churn-detach", 0, &churn_detach),
        flags.GetInt("churn-attach", 0, &churn_attach),
        flags.GetInt("churn-delay-ms", 500, &churn_delay_ms),
        flags.GetDouble("key-skew", 0.0, &key_skew)}) {
    if (!st.ok()) return reject(st.message());
  }
  if (port_flag < 0 || port_flag > 65535) {
    return reject("--port must be a port in [0, 65535]");
  }
  const auto port = static_cast<uint16_t>(port_flag);
  if (num_queries < 1) return reject("--queries must be >= 1");
  if (const Status st = ValidateEventRate(rate); !st.ok()) {
    return reject(st.message());
  }
  if (duration_s < 1) return reject("--duration must be >= 1");
  if (duration_s > std::numeric_limits<int64_t>::max() / SecondsToMicros(1)) {
    return reject("--duration is out of range");
  }
  const TimeMicros duration = SecondsToMicros(duration_s);
  if (!(speed >= 0.0)) return reject("--speed must be >= 0 (0 blasts)");
  if (retry.max_retries < 0) return reject("--max-retries must be >= 0");
  if (!(key_skew >= 0.0)) return reject("--key-skew must be >= 0");
  if (churn_detach < 0 || churn_attach < 0 ||
      churn_detach > num_queries - churn_attach) {
    return reject("churn tenant counts exceed --queries");
  }

  TenantSpec tenant;
  const std::string workload = flags.GetString("workload", "ysb");
  if (!ParseWorkloadFlag(workload, &tenant.workload)) {
    return reject("unknown --workload");
  }
  // klink_run's --delay spellings, plus "none".
  const std::string delay = flags.GetString("delay", "uniform");
  DelayKind delay_kind = DelayKind::kUniform;
  bool no_delay = delay == "none";
  if (!no_delay && !ParseDelayFlag(delay, &delay_kind)) {
    return reject("unknown --delay");
  }
  // --delay-pareto=ALPHA,SCALE_MS overrides the default Pareto shape/scale
  // (implies --delay=pareto): alpha <= 2 gives an infinite-variance tail.
  double pareto_alpha = 0.0, pareto_scale_ms = 0.0;
  const std::string pareto_spec = flags.GetString("delay-pareto", "");
  if (!pareto_spec.empty()) {
    const size_t comma = pareto_spec.find(',');
    if (comma == std::string::npos) {
      return reject("--delay-pareto expects ALPHA,SCALE_MS");
    }
    for (const Status& st :
         {ParseDoubleFlag("delay-pareto", pareto_spec.substr(0, comma),
                          &pareto_alpha),
          ParseDoubleFlag("delay-pareto", pareto_spec.substr(comma + 1),
                          &pareto_scale_ms)}) {
      if (!st.ok()) return reject(st.message());
    }
    if (pareto_alpha <= 0.0 || pareto_scale_ms <= 0.0) {
      return reject("--delay-pareto expects positive ALPHA,SCALE_MS");
    }
    // Range-checked before the conversion to micros.
    if (pareto_scale_ms > static_cast<double>(
                              std::numeric_limits<int64_t>::max() /
                              MillisToMicros(1))) {
      return reject("--delay-pareto SCALE_MS is out of range");
    }
    delay_kind = DelayKind::kPareto;
    no_delay = false;
  }
  auto make_delay = [&]() -> std::unique_ptr<DelayModel> {
    if (no_delay) return std::make_unique<ConstantDelay>(0);
    if (delay_kind == DelayKind::kPareto && pareto_alpha > 0.0) {
      return std::make_unique<ParetoDelay>(
          MillisToMicros(5), pareto_alpha,
          static_cast<DurationMicros>(pareto_scale_ms * 1000.0));
    }
    return MakeDelayModel(delay_kind);
  };
  tenant.events_per_second = rate;
  tenant.watermark_lag =
      no_delay ? MillisToMicros(50) : WatermarkLagFor(delay_kind);
  tenant.key_skew = key_skew;

  // One feed + one connection per source per query; stream ids follow the
  // klink_run --listen convention (MakeStreamId). Each tenant draws only
  // its feed seed from --seed. The in-process harness draws a deploy time,
  // a feed seed and a window offset per query, so a TCP tenant does not
  // replay the feed of the in-process query with the same index.
  std::vector<QueryReplay> replays(static_cast<size_t>(num_queries));
  Rng rng(static_cast<uint64_t>(seed));
  for (int q = 0; q < num_queries; ++q) {
    QueryReplay& r = replays[static_cast<size_t>(q)];
    r.query_index = q;
    // Churn roles: early-departing tenants replay half the run then send
    // kBye; late-arriving tenants hold their first connect.
    r.until = q < churn_detach ? duration / 2 : duration;
    r.connect_delay_ms =
        q >= num_queries - churn_attach ? churn_delay_ms : 0;
    MakeTenant(tenant, q, /*query=*/nullptr, &r.feed, make_delay(),
               /*feed_seed=*/rng.NextUint64(), /*start_time=*/0);
    // LRB has three position-report sub-streams.
    const int num_sources = tenant.workload == WorkloadKind::kLrb ? 3 : 1;
    for (int s = 0; s < num_sources; ++s) {
      r.stream_ids.push_back(MakeStreamId(q, s));
      r.conns.push_back(std::make_unique<LoadgenConnection>());
    }
  }

  std::printf("loadgen: %d %s quer%s x %.0f events/s -> %s:%u, %lld s, "
              "%s delay, speed %.2f\n",
              num_queries, workload.c_str(), num_queries == 1 ? "y" : "ies",
              rate, host.c_str(), port,
              static_cast<long long>(duration / 1000000), delay.c_str(),
              speed);

  // Replay queries concurrently (each on its own thread and sockets);
  // pacing applies per query feed. Connects happen on the replay thread so
  // a churn-attach tenant's delayed hello lands while the others stream.
  std::vector<std::thread> threads;
  for (QueryReplay& r : replays) {
    threads.emplace_back([&r, &host, port, speed, retry]() {
      if (r.connect_delay_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(r.connect_delay_ms));
      }
      std::vector<LoadgenConnection*> conns;
      for (size_t s = 0; s < r.conns.size(); ++s) {
        const Status st = r.conns[s]->Connect(host, port, r.stream_ids[s],
                                              retry);
        if (!st.ok()) {
          r.result = st;
          return;
        }
        conns.push_back(r.conns[s].get());
      }
      ReplayOptions opts;
      opts.until = r.until;
      opts.speed = speed;
      opts.reconnect = retry;
      r.result = ReplayFeed(*r.feed, conns, opts);
    });
  }
  for (std::thread& t : threads) t.join();

  int64_t events = 0, frames = 0, bytes = 0;
  int64_t reconnects = 0, replayed = 0, skipped = 0;
  bool failed = false;
  for (const QueryReplay& r : replays) {
    if (!r.result.ok()) {
      std::fprintf(stderr, "query %d replay failed: %s\n", r.query_index,
                   r.result.ToString().c_str());
      failed = true;
    }
    for (const auto& c : r.conns) {
      events += c->stats().data_events_sent;
      frames += c->stats().frames_sent;
      bytes += c->stats().bytes_sent;
      reconnects += c->stats().reconnects;
      replayed += c->stats().replayed_frames;
      skipped += c->stats().skipped_frames;
    }
  }
  std::printf("loadgen: sent %lld data events (%lld frames, %lld bytes)\n",
              static_cast<long long>(events), static_cast<long long>(frames),
              static_cast<long long>(bytes));
  if (reconnects > 0 || skipped > 0) {
    std::printf("loadgen: %lld reconnects, %lld frames replayed, "
                "%lld skipped as already delivered\n",
                static_cast<long long>(reconnects),
                static_cast<long long>(replayed),
                static_cast<long long>(skipped));
  }
  return failed ? 1 : 0;
}
