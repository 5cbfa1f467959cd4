#include "src/workloads/ysb.h"

#include <utility>
#include <vector>

#include "src/query/pipeline_builder.h"
#include "src/workloads/workload.h"

namespace klink {
namespace {

/// 100 campaigns of 10 ads each; the ad id is the event key and its
/// campaign is ad / kAdsPerCampaign.
constexpr int64_t kNumCampaigns = 100;
constexpr int64_t kAdsPerCampaign = 10;
/// Fraction of events that are "view" events passing the filter.
constexpr double kViewFraction = 1.0 / 3.0;

/// Per-event virtual CPU costs (micros).
constexpr double kSourceCost = 30.0;
constexpr double kFilterCost = 35.0;
constexpr double kMapCost = 25.0;
constexpr double kAggregateCost = 60.0;
constexpr double kSinkCost = 5.0;

}  // namespace

std::unique_ptr<Query> MakeYsbQuery(QueryId id, const YsbConfig& config) {
  PipelineBuilder b("ysb");
  b.SetAllowedLateness(config.allowed_lateness);
  BuilderStream head =
      b.Source("ad-events", kSourceCost)
          .Filter("view-filter", kFilterCost,
                  FilterOperator::HashPassRate(kViewFraction), kViewFraction)
          .Map("project-join-campaign", kMapCost,
               [](Event& e) { e.key /= kAdsPerCampaign; });
  const int shards = std::max(1, config.shards);
  const int max_shards = std::max(shards, config.max_shards);
  if (max_shards > 1) {
    head = head.ShardedTumblingAggregate(
        "campaign-count", kAggregateCost, YsbConfig::window_size,
        AggregationKind::kCount, ShardSpec{shards, max_shards},
        config.window_offset);
  } else {
    head = head.TumblingAggregate("campaign-count", kAggregateCost,
                                  YsbConfig::window_size,
                                  AggregationKind::kCount,
                                  config.window_offset);
  }
  head.Sink("output", kSinkCost);
  return b.Build(id);
}

std::unique_ptr<EventFeed> MakeYsbFeed(const YsbConfig& config,
                                       std::unique_ptr<DelayModel> delay,
                                       uint64_t seed, TimeMicros start_time) {
  SourceSpec spec;
  spec.events_per_second = config.events_per_second;
  spec.key_cardinality = kNumCampaigns * kAdsPerCampaign;
  spec.payload_bytes = 96;  // ad id, page id, event type, timestamp, ip
  spec.burstiness = YsbConfig::burstiness;
  spec.key_skew = config.key_skew;
  spec.watermark_period = YsbConfig::watermark_period;
  spec.watermark_lag = config.watermark_lag;
  return std::make_unique<SyntheticFeed>(std::vector<SourceSpec>{spec},
                                         std::move(delay), seed, start_time);
}

}  // namespace klink
