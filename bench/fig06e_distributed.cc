// Reproduces Fig. 6e: distributed YSB latency vs. number of nodes (1-8)
// for Default, HR, and Klink. 80 queries are partitioned across the
// cluster; each node runs an autonomous policy instance and exchanges
// runtime information over forwarding channels with link latency (Sec. 4).
// Expected shape: latency decreases for every policy as nodes are added,
// with Klink maintaining a clear (paper: ~40%) advantage throughout.

#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/dist/dist_engine.h"
#include "src/harness/reporter.h"

namespace {

using namespace klink;
using namespace klink::bench;

/// The cluster's merged SWM latency over the measured interval.
Histogram RunDistributed(PolicyKind policy, int num_nodes, int num_queries,
                         DurationMicros duration, DurationMicros warmup) {
  DistEngineConfig config;
  config.num_nodes = num_nodes;
  config.node.num_cores = 8;
  // Per-node memory matches the single-node experiments.
  config.node.memory_capacity_bytes = 16ll << 20;
  KlinkPolicyConfig klink_config;
  klink_config.cycle_length = config.cycle_length;
  DistEngine engine(config, [&](NodeId node) {
    return MakePolicy(policy, klink_config,
                      /*seed=*/0x6e0de ^ static_cast<uint64_t>(node));
  });

  // Like RunExperiment, each query draws its deploy time, feed seed and
  // window offset, in that order.
  Rng rng(1);
  const DurationMicros spread = SecondsToMicros(20);
  TenantSpec tenant;
  tenant.watermark_lag = WatermarkLagFor(DelayKind::kUniform);
  for (int q = 0; q < num_queries; ++q) {
    const TimeMicros deploy = rng.NextInt(0, spread);
    const uint64_t feed_seed = rng.NextUint64();
    tenant.window_offset =
        rng.NextInt(0, WindowOffsetRange(tenant.workload) - 1);
    std::unique_ptr<Query> query;
    std::unique_ptr<EventFeed> feed;
    MakeTenant(tenant, q, &query, &feed, MakeDelayModel(DelayKind::kUniform),
               feed_seed, deploy);
    engine.AddQuery(std::move(query), std::move(feed), deploy);
  }
  engine.RunUntil(warmup);
  for (int q = 0; q < engine.num_queries(); ++q) {
    engine.query(q).sink().ResetStats();
  }
  engine.RunUntil(duration);
  return engine.AggregateSwmLatency();
}

}  // namespace

int main(int argc, char** argv) {
  if (!ParseArgs(argc, argv, nullptr)) return 2;
  const std::vector<int> node_counts =
      SmokeMode() ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  const int kQueries = SmokeMode() ? 40 : 80;
  const DurationMicros duration =
      SmokeMode() ? SecondsToMicros(40) : SecondsToMicros(120);
  const DurationMicros warmup =
      SmokeMode() ? SecondsToMicros(10) : SecondsToMicros(30);

  TableReporter table(
      "Fig. 6e: distributed YSB mean latency (s), 80 queries vs #nodes");
  std::vector<std::string> header = {"policy"};
  for (int n : node_counts) header.push_back("nodes=" + std::to_string(n));
  table.SetHeader(header);

  for (PolicyKind policy : {PolicyKind::kDefault, PolicyKind::kHighestRate,
                            PolicyKind::kKlink}) {
    std::vector<std::string> row = {PolicyKindName(policy)};
    for (int nodes : node_counts) {
      const Histogram latency =
          RunDistributed(policy, nodes, kQueries, duration, warmup);
      row.push_back(WindowCell(latency, latency.mean() / 1e6, 3));
    }
    table.AddRow(row);
  }
  table.Print();
  return 0;
}
