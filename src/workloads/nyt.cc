#include "src/workloads/nyt.h"

#include <utility>
#include <vector>

#include "src/query/pipeline_builder.h"
#include "src/workloads/workload.h"

namespace klink {
namespace {

/// Grid cells (grouping keys); the feed draws 16 raw location ids per cell.
constexpr int64_t kNumCells = 200;
/// Fraction of trips surviving validity filtering.
constexpr double kValidFraction = 0.9;
constexpr DurationMicros kWindowSize = SecondsToMicros(2);

/// Load burstiness of the feed (see SourceSpec::burstiness).
constexpr double kBurstiness = 0.5;
constexpr DurationMicros kWatermarkPeriod = MillisToMicros(500);

/// Per-event virtual CPU costs (micros).
constexpr double kSourceCost = 12.0;
constexpr double kParseCost = 17.0;
constexpr double kFilterCost = 12.0;
constexpr double kCellMapCost = 12.0;
constexpr double kEnrichCost = 12.0;
constexpr double kAggregateCost = 35.0;
constexpr double kSinkCost = 5.0;

}  // namespace

std::unique_ptr<Query> MakeNytQuery(QueryId id, const NytConfig& config) {
  PipelineBuilder b("nyt");
  b.SetAllowedLateness(config.allowed_lateness);
  BuilderStream head =
      b.Source("taxi-trips", kSourceCost)
          .Map("parse", kParseCost)
          .Filter("valid-trip", kFilterCost,
                  FilterOperator::HashPassRate(kValidFraction),
                  kValidFraction)
          .Map("pickup-cell", kCellMapCost,
               [](Event& e) { e.key %= kNumCells; })
          .Map("fare-enrich", kEnrichCost,
               [](Event& e) { e.value *= 1.15; });  // add taxes & surcharge
  const int shards = std::max(1, config.shards);
  const int max_shards = std::max(shards, config.max_shards);
  if (max_shards > 1) {
    head = head.ShardedSlidingAggregate(
        "fare-average", kAggregateCost, kWindowSize, NytConfig::slide,
        AggregationKind::kAverage, ShardSpec{shards, max_shards},
        config.window_offset);
  } else {
    head = head.SlidingAggregate("fare-average", kAggregateCost, kWindowSize,
                                 NytConfig::slide, AggregationKind::kAverage,
                                 config.window_offset);
  }
  head.Sink("dashboard", kSinkCost);
  return b.Build(id);
}

std::unique_ptr<EventFeed> MakeNytFeed(const NytConfig& config,
                                       std::unique_ptr<DelayModel> delay,
                                       uint64_t seed, TimeMicros start_time) {
  SourceSpec spec;
  spec.events_per_second = config.events_per_second;
  spec.key_cardinality = kNumCells * 16;  // raw location ids
  spec.value_min = 2.5;                   // minimum fare
  spec.value_max = 80.0;
  spec.payload_bytes = 128;  // trip record: times, coordinates, fare, tip
  spec.burstiness = kBurstiness;
  spec.key_skew = config.key_skew;
  spec.watermark_period = kWatermarkPeriod;
  spec.watermark_lag = config.watermark_lag;
  return std::make_unique<SyntheticFeed>(std::vector<SourceSpec>{spec},
                                         std::move(delay), seed, start_time);
}

}  // namespace klink
