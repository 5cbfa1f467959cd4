// Linear Road on the Klink engine: three position-report sub-streams are
// joined per highway segment, accidents are detected over a sliding
// window, and tolls are computed in a fast tumbling window whose deadline
// period is a third of the upstream windows' — the paper's stressed LRB
// pipeline (Sec. 6.1.1). Demonstrates multi-input queries, per-stream SWM
// tracking, and join unblocking by the minimum watermark (Sec. 3.3).

#include <cstdio>
#include <memory>

#include "src/common/rng.h"
#include "src/klink/klink_policy.h"
#include "src/net/delay_model.h"
#include "src/operators/join_operator.h"
#include "src/runtime/engine.h"
#include "src/workloads/lrb.h"

int main() {
  using namespace klink;

  EngineConfig config;
  config.num_cores = 4;
  Engine engine(config, std::make_unique<KlinkPolicy>());

  Rng rng(5);
  const int kQueries = 8;
  for (int q = 0; q < kQueries; ++q) {
    LrbConfig lrb;
    lrb.events_per_substream_per_second = 400.0;
    lrb.window_offset = rng.NextInt(0, lrb.join_window - 1);
    engine.AddQuery(
        MakeLrbQuery(q, lrb),
        MakeLrbFeed(lrb, MakePaperUniformDelay(), rng.NextUint64(), 0));
  }
  engine.RunFor(SecondsToMicros(60));

  std::printf("LRB: %d accident+toll queries, 3 sub-streams each, 60 virtual s\n",
              kQueries);
  for (int q = 0; q < engine.num_queries(); ++q) {
    Query& query = engine.query(q);
    // The join follows the three source -> segment-map chains.
    const auto* join = dynamic_cast<const WindowJoinOperator*>(&query.op(6));
    std::printf(
        "  query %d: joined panes %-5lld toll rows %-6lld dropped late %-4lld "
        "mean latency %.1f ms\n",
        q, static_cast<long long>(join->fired_panes()),
        static_cast<long long>(query.sink().results_received()),
        static_cast<long long>(join->dropped_late_events()),
        query.sink().swm_latency().mean() / 1e3);
  }
  const Histogram latency = engine.AggregateSwmLatency();
  std::printf("overall: mean %.1f ms, p95 %.1f ms, p99 %.1f ms\n",
              latency.mean() / 1e3,
              static_cast<double>(latency.Percentile(95)) / 1e3,
              static_cast<double>(latency.Percentile(99)) / 1e3);
  return 0;
}
