#include "src/dist/dist_engine.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/harness/experiment.h"
#include "src/klink/klink_policy.h"
#include "src/net/delay_model.h"
#include "src/query/pipeline_builder.h"
#include "src/runtime/engine.h"
#include "src/sched/rr_policy.h"
#include "src/workloads/workload.h"
#include "src/workloads/ysb.h"

namespace klink {
namespace {

std::unique_ptr<EventFeed> SteadyFeed(double rate, uint64_t seed) {
  SourceSpec spec;
  spec.events_per_second = rate;
  spec.key_cardinality = 10;
  spec.watermark_period = MillisToMicros(250);
  spec.watermark_lag = MillisToMicros(50);
  return std::make_unique<SyntheticFeed>(
      std::vector<SourceSpec>{spec},
      std::make_unique<ConstantDelay>(MillisToMicros(10)), seed, 0);
}

DistEngine::PolicyFactory RrFactory() {
  return [](NodeId) { return std::make_unique<RoundRobinPolicy>(); };
}

TEST(DistEngineTest, SingleNodeEndToEnd) {
  DistEngineConfig config;
  config.num_nodes = 1;
  DistEngine engine(config, RrFactory());
  YsbConfig ysb;
  ysb.events_per_second = 500;
  engine.AddQuery(MakeYsbQuery(0, ysb), SteadyFeed(500, 1));
  engine.RunUntil(SecondsToMicros(12));
  EXPECT_GT(engine.query(0).sink().results_received(), 0);
  EXPECT_GT(engine.AggregateSwmLatency().count(), 0);
}

TEST(DistEngineTest, SplitPlacementDeliversAcrossNodes) {
  DistEngineConfig config;
  config.num_nodes = 3;
  config.placement = PlacementMode::kSplit;
  config.link_latency = MillisToMicros(5);
  DistEngine engine(config, RrFactory());
  YsbConfig ysb;
  ysb.events_per_second = 500;
  engine.AddQuery(MakeYsbQuery(0, ysb), SteadyFeed(500, 2));
  // The pipeline really is split.
  EXPECT_GT(CountCrossNodeEdges(engine.query(0), engine.placement(0)), 0);
  engine.RunUntil(SecondsToMicros(12));
  // Results still flow end-to-end through the transit links.
  EXPECT_GT(engine.query(0).sink().results_received(), 0);
  EXPECT_GT(engine.AggregateSwmLatency().count(), 0);
}

TEST(DistEngineTest, LocalPlacementRoundRobinsQueries) {
  DistEngineConfig config;
  config.num_nodes = 2;
  config.placement = PlacementMode::kLocal;
  DistEngine engine(config, RrFactory());
  YsbConfig ysb;
  ysb.events_per_second = 200;
  for (int q = 0; q < 4; ++q) {
    engine.AddQuery(MakeYsbQuery(q, ysb), SteadyFeed(200, 10 + q));
  }
  for (int q = 0; q < 4; ++q) {
    const auto& placement = engine.placement(q);
    for (NodeId n : placement) EXPECT_EQ(n, q % 2);
  }
}

TEST(DistEngineTest, LinkLatencyDelaysCrossNodeEvents) {
  // With a huge link latency and split placement, output stalls far
  // behind the single-node equivalent.
  auto run = [](DurationMicros link_latency) {
    DistEngineConfig config;
    config.num_nodes = 2;
    config.placement = PlacementMode::kSplit;
    config.link_latency = link_latency;
    DistEngine engine(config, RrFactory());
    YsbConfig ysb;
    ysb.events_per_second = 500;
    engine.AddQuery(MakeYsbQuery(0, ysb), SteadyFeed(500, 3));
    engine.RunUntil(SecondsToMicros(12));
    return engine.AggregateSwmLatency().mean();
  };
  const double fast = run(MillisToMicros(1));
  const double slow = run(SecondsToMicros(2));
  EXPECT_GT(slow, fast + 1e6);
}

TEST(DistEngineTest, KlinkRunsDecentralized) {
  DistEngineConfig config;
  config.num_nodes = 4;
  config.placement = PlacementMode::kLocal;
  DistEngine engine(config, [](NodeId) {
    return std::make_unique<KlinkPolicy>();
  });
  YsbConfig ysb;
  ysb.events_per_second = 400;
  for (int q = 0; q < 8; ++q) {
    engine.AddQuery(MakeYsbQuery(q, ysb), SteadyFeed(400, 20 + q));
  }
  engine.RunUntil(SecondsToMicros(15));
  for (int q = 0; q < 8; ++q) {
    EXPECT_GT(engine.query(q).sink().results_received(), 0) << q;
  }
}

TEST(DistEngineTest, DeterministicAcrossRuns) {
  auto run = [] {
    DistEngineConfig config;
    config.num_nodes = 2;
    config.placement = PlacementMode::kSplit;
    DistEngine engine(config, RrFactory());
    YsbConfig ysb;
    ysb.events_per_second = 300;
    engine.AddQuery(MakeYsbQuery(0, ysb), SteadyFeed(300, 5));
    engine.RunUntil(SecondsToMicros(10));
    return std::make_pair(engine.metrics().processed_events(),
                          engine.AggregateSwmLatency().mean());
  };
  EXPECT_EQ(run(), run());
}

/// A YSB deployment both engines can build identically: `queries` queries
/// at `rate` events/s with random window offsets and deploy times.
struct YsbDeployment {
  int queries = 0;
  double rate = 0.0;

  /// Calls add(query, feed, deploy_time) once per query, in id order.
  template <typename AddFn>
  void Deploy(AddFn add) const {
    Rng rng(7);
    for (int q = 0; q < queries; ++q) {
      YsbConfig wc;
      wc.events_per_second = rate;
      wc.watermark_lag = WatermarkLagFor(DelayKind::kUniform);
      wc.window_offset = rng.NextInt(0, wc.window_size - 1);
      const TimeMicros deploy = rng.NextInt(0, SecondsToMicros(4));
      add(MakeYsbQuery(q, wc),
          MakeYsbFeed(wc, MakeDelayModel(DelayKind::kUniform),
                      rng.NextUint64(), deploy),
          deploy);
    }
  }
};

/// One run's observable outputs, compared exactly.
struct Outputs {
  std::vector<uint64_t> results_hash;
  std::vector<int64_t> results_received;
  int64_t processed = 0;
  int64_t ingested = 0;
  int64_t swm_count = 0;
  double swm_mean = 0.0;
};

template <typename EngineT>
Outputs Observe(EngineT& engine, const std::vector<QueryId>& ids) {
  Outputs out;
  for (const QueryId id : ids) {
    out.results_hash.push_back(engine.query(id).sink().results_hash());
    out.results_received.push_back(engine.query(id).sink().results_received());
  }
  out.processed = engine.metrics().processed_events();
  out.ingested = engine.metrics().ingested_events();
  const Histogram swm = engine.AggregateSwmLatency();
  out.swm_count = swm.count();
  out.swm_mean = swm.mean();
  return out;
}

// A one-node DistEngine is the Engine: a node's share of a query is the
// whole query, drained by the same ExecutionContext and observed by the
// same CollectQueryInfo, so every policy sees the same snapshots and makes
// the same choices.
TEST(DistEngineTest, OneNodeMatchesEngineForEveryPolicy) {
  struct Setup {
    YsbDeployment deployment;
    int cores;
    int64_t memory_bytes;
  };
  const Setup setups[] = {{{12, 2000.0}, 4, 8ll << 20},
                          {{8, 3000.0}, 2, 4ll << 20}};
  const PolicyKind policies[] = {
      PolicyKind::kDefault,     PolicyKind::kFcfs,  PolicyKind::kRoundRobin,
      PolicyKind::kHighestRate, PolicyKind::kStreamBox, PolicyKind::kKlink,
      PolicyKind::kKlinkNoMm};
  const TimeMicros end = SecondsToMicros(20);
  for (const Setup& setup : setups) {
    for (const PolicyKind policy : policies) {
      SCOPED_TRACE(std::string(PolicyKindName(policy)) + " on " +
                   std::to_string(setup.cores) + " cores");
      EngineConfig ec;
      ec.num_cores = setup.cores;
      ec.memory_capacity_bytes = setup.memory_bytes;
      KlinkPolicyConfig kc;
      kc.cycle_length = ec.cycle_length;
      Engine engine(ec, MakePolicy(policy, kc, 11));
      std::vector<QueryId> engine_ids;
      setup.deployment.Deploy([&](std::unique_ptr<Query> q,
                                  std::unique_ptr<EventFeed> feed,
                                  TimeMicros deploy) {
        engine_ids.push_back(
            engine.AddQuery(std::move(q), std::move(feed), deploy));
      });
      engine.RunUntil(end);

      DistEngineConfig dc;
      dc.num_nodes = 1;
      dc.placement = PlacementMode::kLocal;
      dc.node.num_cores = setup.cores;
      dc.node.memory_capacity_bytes = setup.memory_bytes;
      dc.cycle_length = ec.cycle_length;
      DistEngine dist(dc,
                      [&](NodeId) { return MakePolicy(policy, kc, 11); });
      std::vector<QueryId> dist_ids;
      setup.deployment.Deploy([&](std::unique_ptr<Query> q,
                                  std::unique_ptr<EventFeed> feed,
                                  TimeMicros deploy) {
        dist_ids.push_back(
            dist.AddQuery(std::move(q), std::move(feed), deploy));
      });
      dist.RunUntil(end);

      const Outputs want = Observe(engine, engine_ids);
      const Outputs got = Observe(dist, dist_ids);
      EXPECT_EQ(got.results_hash, want.results_hash);
      EXPECT_EQ(got.results_received, want.results_received);
      EXPECT_EQ(got.processed, want.processed);
      EXPECT_EQ(got.ingested, want.ingested);
      EXPECT_EQ(got.swm_count, want.swm_count);
      EXPECT_EQ(got.swm_mean, want.swm_mean);
      EXPECT_GT(want.swm_count, 0);
    }
  }
}

// A k-node kLocal DistEngine is k Engines: query q runs whole on node
// q mod k, whose node step ingests, schedules and budgets it exactly as an
// Engine running that node's queries with that node's policy seed does.
// In the 40-query runs every node reaches the 4 MB cap by 9 s and its
// backpressure toggles, so each node's own budget and hysteresis count.
TEST(DistEngineTest, LocalNodesMatchOneEngineEach) {
  struct Setup {
    int nodes;
    YsbDeployment deployment;
    TimeMicros end;
    std::vector<PolicyKind> policies;
  };
  const Setup setups[] = {
      {2,
       {12, 1500.0},
       SecondsToMicros(12),
       {PolicyKind::kDefault, PolicyKind::kFcfs, PolicyKind::kRoundRobin,
        PolicyKind::kHighestRate, PolicyKind::kStreamBox, PolicyKind::kKlink,
        PolicyKind::kKlinkNoMm}},
      {4,
       {40, 3000.0},
       SecondsToMicros(9),
       {PolicyKind::kFcfs, PolicyKind::kKlink}},
  };
  constexpr int kCores = 2;
  constexpr int64_t kMemoryBytes = 4ll << 20;
  const auto seed_of = [](NodeId n) { return uint64_t{11} + n; };
  for (const Setup& setup : setups) {
    for (const PolicyKind policy : setup.policies) {
      SCOPED_TRACE(std::string(PolicyKindName(policy)) + " on " +
                   std::to_string(setup.nodes) + " nodes");
      KlinkPolicyConfig kc;
      DistEngineConfig dc;
      dc.num_nodes = setup.nodes;
      dc.placement = PlacementMode::kLocal;
      dc.node.num_cores = kCores;
      dc.node.memory_capacity_bytes = kMemoryBytes;
      kc.cycle_length = dc.cycle_length;
      DistEngine dist(
          dc, [&](NodeId n) { return MakePolicy(policy, kc, seed_of(n)); });

      std::vector<std::unique_ptr<Engine>> engines;
      for (NodeId n = 0; n < setup.nodes; ++n) {
        EngineConfig ec;
        ec.num_cores = kCores;
        ec.memory_capacity_bytes = kMemoryBytes;
        ec.cycle_length = dc.cycle_length;
        engines.push_back(std::make_unique<Engine>(
            ec, MakePolicy(policy, kc, seed_of(n))));
      }
      // (engine, id in that engine) of each query, in query id order.
      std::vector<std::pair<Engine*, QueryId>> hosts;
      // Both deployments draw the same queries, feeds and deploy times.
      setup.deployment.Deploy([&](std::unique_ptr<Query> q,
                                  std::unique_ptr<EventFeed> feed,
                                  TimeMicros deploy) {
        Engine& engine =
            *engines[hosts.size() % static_cast<size_t>(setup.nodes)];
        hosts.emplace_back(
            &engine, engine.AddQuery(std::move(q), std::move(feed), deploy));
      });
      setup.deployment.Deploy([&](std::unique_ptr<Query> q,
                                  std::unique_ptr<EventFeed> feed,
                                  TimeMicros deploy) {
        dist.AddQuery(std::move(q), std::move(feed), deploy);
      });
      dist.RunUntil(setup.end);
      for (const auto& engine : engines) engine->RunUntil(setup.end);

      int64_t swm_total = 0;
      for (QueryId id = 0; id < dist.num_queries(); ++id) {
        SCOPED_TRACE("query " + std::to_string(id));
        const SinkOperator& got = dist.query(id).sink();
        const SinkOperator& want =
            hosts[static_cast<size_t>(id)].first->query(
                hosts[static_cast<size_t>(id)].second).sink();
        EXPECT_EQ(got.results_hash(), want.results_hash());
        EXPECT_EQ(got.results_received(), want.results_received());
        EXPECT_EQ(got.swm_latency().count(), want.swm_latency().count());
        EXPECT_EQ(got.swm_latency().mean(), want.swm_latency().mean());
        swm_total += want.swm_latency().count();
      }
      EXPECT_GT(swm_total, 0);
    }
  }
}

// Pins the cross-node path: split pipelines over 3 nodes, where every
// output crossing a node boundary enters the link at the completion time
// of the element that produced it. The constants come from a scalar
// per-element drain; shipping each batch's outputs at flush time instead
// moves Klink's processed count and latency mean.
TEST(DistEngineTest, SplitPlacementFingerprint) {
  struct Pin {
    PolicyKind policy;
    int64_t processed;
    uint64_t results_hash;
    double swm_mean;
  };
  const Pin pins[] = {
      {PolicyKind::kRoundRobin, 634782, 0x365bb3346c59951eull,
       1096315.482142857},
      {PolicyKind::kKlink, 624945, 0xfe93621e5d40fe58ull,
       738813.03508771933},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(PolicyKindName(pin.policy));
    DistEngineConfig config;
    config.num_nodes = 3;
    config.placement = PlacementMode::kSplit;
    config.node.num_cores = 2;
    config.node.memory_capacity_bytes = 8ll << 20;
    KlinkPolicyConfig kc;
    kc.cycle_length = config.cycle_length;
    DistEngine engine(config,
                      [&](NodeId) { return MakePolicy(pin.policy, kc, 11); });
    std::vector<QueryId> ids;
    YsbDeployment{9, 1500.0}.Deploy([&](std::unique_ptr<Query> q,
                                        std::unique_ptr<EventFeed> feed,
                                        TimeMicros deploy) {
      ids.push_back(engine.AddQuery(std::move(q), std::move(feed), deploy));
    });
    engine.RunUntil(SecondsToMicros(20));
    const Outputs out = Observe(engine, ids);
    uint64_t combined = 0;
    for (const uint64_t h : out.results_hash) {
      combined = combined * 1099511628211ull ^ h;
    }
    EXPECT_EQ(out.processed, pin.processed);
    EXPECT_EQ(combined, pin.results_hash);
    EXPECT_EQ(out.swm_mean, pin.swm_mean);
  }
}

}  // namespace
}  // namespace klink
