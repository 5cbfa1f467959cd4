#ifndef KLINK_WORKLOADS_NYT_H_
#define KLINK_WORKLOADS_NYT_H_

#include <memory>

#include "src/net/delay_model.h"
#include "src/query/query.h"
#include "src/runtime/event_feed.h"

namespace klink {

/// New York City Taxi benchmark (DEBS 2015 Grand Challenge [27],
/// Sec. 6.1.1): an aggregation query over taxi trip records, "a complex
/// pipeline that includes a sequence of many stateless operators and a
/// sliding aggregation window of size two seconds and a slide of one
/// second".
///
///   source -> parse -> valid-trip-filter -> map(cell) -> enrich(fare) ->
///   sliding-avg(2 s / slide) -> sink
///
/// The pipeline is fixed: its key space, selectivity, window size and
/// per-operator costs are constants beside MakeNytQuery (nyt.cc). A tenant
/// varies only the fields below.
struct NytConfig {
  /// Slide (deadline period) of the sliding average.
  static constexpr DurationMicros slide = SecondsToMicros(1);

  /// Data events per second per query (paper: 7K/s).
  double events_per_second = 1000.0;
  DurationMicros window_offset = 0;

  /// Key skew (see SourceSpec::key_skew); 0 = uniform location keys.
  double key_skew = 0.0;

  DurationMicros watermark_lag = MillisToMicros(150);
  /// Allowed-lateness horizon (see YsbConfig::allowed_lateness).
  DurationMicros allowed_lateness = 0;

  /// Intra-query key sharding of the sliding aggregation (DESIGN.md
  /// "Sharded execution"); see YsbConfig::shards.
  int shards = 1;
  int max_shards = 0;
};

/// Builds the NYT aggregation query.
std::unique_ptr<Query> MakeNytQuery(QueryId id, const NytConfig& config);

/// Builds the matching feed.
std::unique_ptr<EventFeed> MakeNytFeed(const NytConfig& config,
                                       std::unique_ptr<DelayModel> delay,
                                       uint64_t seed, TimeMicros start_time);

}  // namespace klink

#endif  // KLINK_WORKLOADS_NYT_H_
