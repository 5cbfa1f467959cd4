#include "src/workloads/lrb.h"

#include <utility>
#include <vector>

#include "src/query/pipeline_builder.h"
#include "src/workloads/workload.h"

namespace klink {
namespace {

/// Highway segments (grouping keys).
constexpr int64_t kNumSegments = 100;
constexpr DurationMicros kAccidentWindow = SecondsToMicros(5);
/// A third of the accident window's deadline period (1 s).
constexpr DurationMicros kTollWindow = LrbConfig::accident_slide / 3;

/// Load burstiness of each sub-stream (see SourceSpec::burstiness).
constexpr double kBurstiness = 0.5;
constexpr DurationMicros kWatermarkPeriod = MillisToMicros(500);

/// Per-event virtual CPU costs (micros).
constexpr double kSourceCost = 25.0;
constexpr double kMapCost = 22.0;
constexpr double kJoinCost = 42.0;
constexpr double kAccidentCost = 40.0;
constexpr double kTollCost = 30.0;
constexpr double kSinkCost = 5.0;

}  // namespace

std::unique_ptr<Query> MakeLrbQuery(QueryId id, const LrbConfig& config) {
  PipelineBuilder b("lrb");
  b.SetAllowedLateness(config.allowed_lateness);
  // Three position-report sub-streams, each mapped onto its highway
  // segment before the group-by join.
  std::vector<BuilderStream> inputs;
  for (int i = 0; i < 3; ++i) {
    const std::string suffix = std::to_string(i);
    inputs.push_back(
        b.Source("position-reports-" + suffix, kSourceCost)
            .Map("segment-map-" + suffix, kMapCost,
                 [](Event& e) { e.key %= kNumSegments; }));
  }
  b.TumblingJoin("segment-join", kJoinCost, LrbConfig::join_window,
                 std::move(inputs), config.window_offset)
      .SlidingAggregate("accident-detection", kAccidentCost, kAccidentWindow,
                        LrbConfig::accident_slide, AggregationKind::kMax,
                        config.window_offset)
      .TumblingAggregate("toll-calculation", kTollCost, kTollWindow,
                         AggregationKind::kSum, config.window_offset)
      .Sink("toll-output", kSinkCost);
  return b.Build(id);
}

std::unique_ptr<EventFeed> MakeLrbFeed(const LrbConfig& config,
                                       std::unique_ptr<DelayModel> delay,
                                       uint64_t seed, TimeMicros start_time) {
  std::vector<SourceSpec> specs;
  for (int i = 0; i < 3; ++i) {
    SourceSpec spec;
    spec.events_per_second = config.events_per_substream_per_second;
    spec.key_cardinality = kNumSegments;
    spec.value_min = 0.0;
    spec.value_max = 180.0;  // vehicle speed
    spec.payload_bytes = 112;  // vehicle id, speed, lane, position, ...
    spec.burstiness = kBurstiness;
    spec.key_skew = config.key_skew;
    spec.watermark_period = kWatermarkPeriod;
    spec.watermark_lag = config.watermark_lag;
    specs.push_back(spec);
  }
  return std::make_unique<SyntheticFeed>(std::move(specs), std::move(delay),
                                         seed, start_time);
}

}  // namespace klink
