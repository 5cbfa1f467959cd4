#ifndef KLINK_WORKLOADS_LRB_H_
#define KLINK_WORKLOADS_LRB_H_

#include <memory>

#include "src/net/delay_model.h"
#include "src/query/query.h"
#include "src/runtime/event_feed.h"

namespace klink {

/// Linear Road Benchmark [7], streaming variant [26] (Sec. 6.1.1): a
/// complex pipeline mixing tumbling windows, sliding windows and a
/// group-by join over three position-report sub-streams, implementing the
/// accident-detection and toll-calculation queries.
///
///   3 x (source -> map(segment)) -> tumbling-join(join_window) ->
///   sliding-agg(accident: 5 s / accident_slide) ->
///   tumbling-agg(toll: accident_slide / 3) -> sink
///
/// Per the paper's stress setup, the deadline period of the last window
/// operator (toll) is 1/3 of the earlier deadline period so pipeline
/// pressure intensifies at SWM ingestion. The pipeline is fixed: its key
/// space, accident and toll windows and per-operator costs are constants
/// beside MakeLrbQuery (lrb.cc). A tenant varies only the fields below.
struct LrbConfig {
  /// Tumbling window of the segment join.
  static constexpr DurationMicros join_window = SecondsToMicros(2);
  /// Deadline period of the sliding accident window.
  static constexpr DurationMicros accident_slide = SecondsToMicros(3);

  /// Data events per second per sub-stream (paper: 6.5K per 2 s = 3250/s).
  double events_per_substream_per_second = 1000.0;
  DurationMicros window_offset = 0;

  /// Key skew (see SourceSpec::key_skew); 0 = uniform segment keys.
  double key_skew = 0.0;

  DurationMicros watermark_lag = MillisToMicros(150);
  /// Allowed-lateness horizon (see YsbConfig::allowed_lateness). Applies
  /// to the accident and toll windows; the join keeps its drop policy.
  DurationMicros allowed_lateness = 0;
};

/// Builds the LRB accident-detection + toll query.
std::unique_ptr<Query> MakeLrbQuery(QueryId id, const LrbConfig& config);

/// Builds the 3-sub-stream feed.
std::unique_ptr<EventFeed> MakeLrbFeed(const LrbConfig& config,
                                       std::unique_ptr<DelayModel> delay,
                                       uint64_t seed, TimeMicros start_time);

}  // namespace klink

#endif  // KLINK_WORKLOADS_LRB_H_
