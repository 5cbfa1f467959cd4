#ifndef KLINK_WORKLOADS_YSB_H_
#define KLINK_WORKLOADS_YSB_H_

#include <memory>

#include "src/net/delay_model.h"
#include "src/query/query.h"
#include "src/runtime/event_feed.h"

namespace klink {

/// Yahoo! Streaming Benchmark [18]: advertising events filtered to views,
/// projected, joined to their campaign and counted per campaign in a
/// tumbling window — "a simple pipeline with aggregation" (Sec. 6.1.1).
///
///   source -> filter(view, ~1/3) -> map(ad->campaign) ->
///   tumbling-count(window_size) -> sink
///
/// The pipeline is fixed: its key space, selectivity and per-operator costs
/// are constants beside MakeYsbQuery (ysb.cc). A tenant varies only the
/// fields below.
struct YsbConfig {
  /// Tumbling window size (paper: 3 s windows).
  static constexpr DurationMicros window_size = SecondsToMicros(3);
  /// Load burstiness of the feed (see SourceSpec::burstiness).
  static constexpr double burstiness = 0.5;
  /// Watermark period of the feed.
  static constexpr DurationMicros watermark_period = MillisToMicros(500);

  /// Data events per second per query.
  double events_per_second = 1000.0;
  /// Phase shift of the window deadlines (randomized per query, Sec. 6.2.1).
  DurationMicros window_offset = 0;
  /// Key skew (see SourceSpec::key_skew); 0 = uniform ad keys.
  double key_skew = 0.0;

  DurationMicros watermark_lag = MillisToMicros(150);
  /// Allowed-lateness horizon (PipelineBuilder::SetAllowedLateness): 0
  /// drops late events, > 0 retains fired panes and emits
  /// retraction+update corrections for late arrivals within the horizon.
  DurationMicros allowed_lateness = 0;

  /// Intra-query key sharding of the aggregation (DESIGN.md "Sharded
  /// execution"): shards > 1 hash-partitions campaign-count into that many
  /// active shard lanes, out of max_shards constructed so a live re-shard
  /// can scale up to the ceiling (max_shards = 0 means equal to shards).
  /// Results are byte-identical to the unsharded pipeline.
  int shards = 1;
  int max_shards = 0;
};

/// Builds the YSB query pipeline.
std::unique_ptr<Query> MakeYsbQuery(QueryId id, const YsbConfig& config);

/// Builds the matching input feed. Generation starts at `start_time`.
std::unique_ptr<EventFeed> MakeYsbFeed(const YsbConfig& config,
                                       std::unique_ptr<DelayModel> delay,
                                       uint64_t seed, TimeMicros start_time);

}  // namespace klink

#endif  // KLINK_WORKLOADS_YSB_H_
