// Shard scaling bench: keyed-aggregation drain throughput vs. shard count
// (1 / 2 / 4 / 8) under uniform and Zipf-skewed keys, on the thread-pool
// executor. The unsharded operator is measured alongside as the
// no-exchange reference.
//
// What scales and why: the engine charges each selected scheduling unit up
// to r (cycle_length) of *virtual* CPU per cycle. An unsharded keyed
// aggregate is one unit, so its drain rate is capped at
// r / unit_cost per cycle no matter how many cores are free. Sharding
// splits the operator into S independently schedulable lanes; with
// saturating backlog each lane drains r per cycle, so keyed throughput
// scales ~linearly in S (until the partition stage or skew-hot shard
// binds). Virtual throughput is the right meter here: it is what the
// scheduling model actually allocates, and it is independent of the host's
// core count (CI runs this on 1-2 cores, where wall-clock cannot show the
// lane-level parallelism; wall time is reported alongside for
// transparency).
//
// The feed offers ~1.5x the 8-shard drain capacity so every shard keeps
// backlog; the engine's backpressure throttles ingest near the memory
// ceiling, which keeps queues saturated without unbounded growth — the
// measured regime is pure drain capacity.
//
// Acceptance (ShardScaleTest in tests/shard_equivalence_test.cc, with this
// bench's smoke settings): uniform-key throughput at 4 shards >= 2.5x the
// 1-shard sharded topology. Zipf rows quantify how key skew erodes that
// scaling: at s=0.99 over 1024 keys the per-shard key mass still exceeds
// every shard's drain rate at this offered load, so scaling holds; at
// s=1.5 the hottest shard hoards most of the arrivals and its siblings
// starve — the regime the hot-shard re-shard trigger exists for.
//
//   micro_shard_scale [--executor=threads|sequential]

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/types.h"
#include "src/operators/operator.h"
#include "src/query/pipeline_builder.h"
#include "src/runtime/engine.h"
#include "src/sched/fcfs_policy.h"
#include "src/workloads/workload.h"

namespace klink {
namespace {

/// Per-event virtual cost of the keyed aggregate: large relative to the
/// exchange (0.05us) and source costs so the keyed drain is the binding
/// stage at every shard count.
constexpr double kAggCostMicros = 100.0;
constexpr double kSourceCostMicros = 0.2;
constexpr double kSinkCostMicros = 0.2;
constexpr int64_t kKeyCardinality = 1024;
/// Offered load: ~1.5x the 8-shard drain capacity (8 * r/kAggCostMicros
/// events per cycle ~= 80k/s) so backlog never dries up.
constexpr double kOfferedEventsPerSecond = 120000.0;

struct RunResult {
  int shards = 0;  // 0 = unsharded reference
  double key_skew = 0.0;
  int64_t drained = 0;
  double virtual_seconds = 0.0;
  double throughput_eps = 0.0;
  double wall_ms = 0.0;
};

std::unique_ptr<Query> MakeQuery(int shards) {
  PipelineBuilder b("shard-scale");
  BuilderStream head = b.Source("src", kSourceCostMicros);
  if (shards > 0) {
    head = head.ShardedTumblingAggregate(
        "keyed-count", kAggCostMicros, SecondsToMicros(1),
        AggregationKind::kCount, ShardSpec{shards, shards});
  } else {
    head = head.TumblingAggregate("keyed-count", kAggCostMicros,
                                  SecondsToMicros(1), AggregationKind::kCount);
  }
  head.Sink("out", kSinkCostMicros);
  return b.Build(/*id=*/0);
}

std::unique_ptr<EventFeed> MakeFeed(double key_skew) {
  SourceSpec spec;
  spec.events_per_second = kOfferedEventsPerSecond;
  spec.key_cardinality = kKeyCardinality;
  spec.key_skew = key_skew;
  spec.watermark_period = MillisToMicros(500);
  spec.watermark_lag = MillisToMicros(100);
  return std::make_unique<SyntheticFeed>(
      std::vector<SourceSpec>{spec},
      std::make_unique<ConstantDelay>(MillisToMicros(5)), /*seed=*/42, 0);
}

/// Sum of data events drained by the keyed aggregate: all shard operators
/// for a sharded query, the single window operator otherwise (operator 1:
/// source, aggregate, sink).
int64_t KeyedDrained(const Query& q) {
  if (!q.sharded()) return q.op(1).processed_data_count();
  int64_t total = 0;
  const Query::ShardRegion& region = q.shard_region();
  for (int idx = region.shard_begin; idx < region.shard_end; ++idx) {
    total += q.op(idx).processed_data_count();
  }
  return total;
}

RunResult RunOne(int shards, double key_skew, ExecutorKind executor,
                 DurationMicros warmup, DurationMicros measure) {
  EngineConfig config;
  // Slots for every lane of the widest topology: prefix + 8 shards +
  // suffix, with headroom.
  config.num_cores = 12;
  config.cycle_length = MillisToMicros(120);
  config.memory_capacity_bytes = 64ll << 20;
  config.executor = executor;
  Engine engine(config, std::make_unique<FcfsPolicy>());
  const QueryId id =
      engine.AddQuery(MakeQuery(shards), MakeFeed(key_skew));

  const auto wall_start = std::chrono::steady_clock::now();
  engine.RunFor(warmup);
  const int64_t drained_at_warmup = KeyedDrained(engine.query(id));
  engine.RunFor(measure);
  const auto wall_end = std::chrono::steady_clock::now();

  RunResult r;
  r.shards = shards;
  r.key_skew = key_skew;
  r.drained = KeyedDrained(engine.query(id)) - drained_at_warmup;
  r.virtual_seconds = static_cast<double>(measure) / 1e6;
  r.throughput_eps = static_cast<double>(r.drained) / r.virtual_seconds;
  r.wall_ms = std::chrono::duration<double, std::milli>(wall_end - wall_start)
                  .count();
  return r;
}

}  // namespace
}  // namespace klink

int main(int argc, char** argv) {
  using namespace klink;

  ExecutorKind executor = ExecutorKind::kThreads;
  if (!bench::ParseArgs(argc, argv, &executor)) return 2;

  const bool smoke = bench::SmokeMode();
  const DurationMicros warmup = SecondsToMicros(smoke ? 1 : 2);
  const DurationMicros measure = SecondsToMicros(smoke ? 2 : 10);

  std::printf("# shard scaling: keyed drain throughput, executor=%s, "
              "measure=%llds (shards=0 is the unsharded reference)\n",
              ExecutorKindName(executor),
              static_cast<long long>(measure / 1000000));
  for (const double skew : {0.0, 0.99, 1.5}) {
    for (const int shards : {0, 1, 2, 4, 8}) {
      const RunResult r = RunOne(shards, skew, executor, warmup, measure);
      std::printf("RESULT skew=%.2f shards=%d drained=%lld "
                  "virtual_seconds=%.1f throughput_eps=%.0f wall_ms=%.0f\n",
                  r.key_skew, r.shards, static_cast<long long>(r.drained),
                  r.virtual_seconds, r.throughput_eps, r.wall_ms);
      std::fflush(stdout);
    }
  }
  return 0;
}
