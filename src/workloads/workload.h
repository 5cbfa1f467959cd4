#ifndef KLINK_WORKLOADS_WORKLOAD_H_
#define KLINK_WORKLOADS_WORKLOAD_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/common/zipf.h"
#include "src/net/delay_model.h"
#include "src/runtime/event_feed.h"

namespace klink {

/// Generation parameters of one input source of a query.
struct SourceSpec {
  /// Data events per second of virtual time.
  double events_per_second = 1000.0;
  /// Keys are drawn from [0, key_cardinality): uniformly when key_skew is
  /// 0, else Zipf-distributed with exponent key_skew (key 0 hottest) — the
  /// skewed-key regime that concentrates load on one shard of a sharded
  /// keyed operator (loadgen --key-skew, bench/micro_shard_scale).
  int64_t key_cardinality = 100;
  double key_skew = 0.0;
  /// Values are drawn uniformly from [value_min, value_max).
  double value_min = 0.0;
  double value_max = 100.0;
  uint32_t payload_bytes = 64;
  /// Watermarks are emitted every watermark_period with timestamp
  /// (emission time - watermark_lag): the application's bound on event
  /// lateness (Sec. 2.2: "a periodic watermark can be generated every five
  /// seconds holding a timestamp of the current time minus five seconds").
  DurationMicros watermark_period = MillisToMicros(500);
  DurationMicros watermark_lag = MillisToMicros(150);
  /// Latency markers every marker_period (paper: 200 ms, Sec. 6.1.2).
  DurationMicros marker_period = MillisToMicros(200);
  /// Load burstiness: the instantaneous event rate is modulated by a
  /// multiplier drawn uniformly from [1 - burstiness, 1 + burstiness],
  /// re-drawn every 1-4 s. Real application streams exhibit exactly these
  /// fluctuating load spikes (Sec. 1); 0 disables modulation.
  double burstiness = 0.0;
};

/// Deterministic synthetic feed: per-source periodic data events, periodic
/// watermarks, and latency markers, each delayed by the configured network
/// delay model; elements are delivered in ingestion order, ties in
/// generation order.
class SyntheticFeed final : public EventFeed {
 public:
  /// `start_time`: generation begins at this virtual time (the query's
  /// deploy time). One delay model instance is shared by all sources of
  /// this feed (they model the same network path).
  SyntheticFeed(std::vector<SourceSpec> sources,
                std::unique_ptr<DelayModel> delay, uint64_t seed,
                TimeMicros start_time);

  void PollUpTo(TimeMicros now, int64_t max_bytes,
                std::vector<FeedElement>* out) override;
  int64_t generated_events() const override { return generated_; }

 private:
  struct SourceState {
    SourceSpec spec;
    /// Non-null when spec.key_skew > 0.
    std::shared_ptr<ZipfSampler> key_sampler;
    double next_event_time = 0.0;  // double: sub-micro rate accumulation
    TimeMicros next_watermark_time = 0;
    TimeMicros next_marker_time = 0;
    /// Burst modulation: current rate multiplier and when to re-draw it.
    double rate_multiplier = 1.0;
    TimeMicros next_burst_switch = 0;
  };
  /// Sort key of a due element: its ingest time, then its position in
  /// pending_ (generation order) as the tie-break.
  struct DueKey {
    TimeMicros ingest_time;
    size_t index;
    bool operator<(const DueKey& other) const {
      return ingest_time != other.ingest_time ? ingest_time < other.ingest_time
                                              : index < other.index;
    }
  };

  /// Generates all elements with generation time <= horizon into pending_
  /// and advances generated_through_ to it (delays are non-negative, so
  /// nothing generated later is ingested before `horizon`).
  void GenerateUpTo(TimeMicros horizon);
  /// Fills due_ with the keys of pending_'s elements due by `now`, in
  /// delivery order.
  void SortDue(TimeMicros now);

  std::vector<SourceState> sources_;
  std::unique_ptr<DelayModel> delay_;
  Rng rng_;
  /// Generated elements not yet delivered, in generation order: at most
  /// one generation slice plus the delay tail (PollUpTo).
  std::vector<FeedElement> pending_;
  /// Every element generated at or before this time is in pending_ or
  /// was delivered.
  TimeMicros generated_through_;
  /// The last poll's byte budget refused an element due by
  /// generated_through_, so generation waits until those are delivered.
  bool backlog_ = false;
  /// SortDue scratch: the sorted keys, the bucket scatter target, and the
  /// bucket offsets.
  std::vector<DueKey> due_;
  std::vector<DueKey> bucketed_;
  std::vector<size_t> bucket_offsets_;
  int64_t generated_ = 0;
};

}  // namespace klink

#endif  // KLINK_WORKLOADS_WORKLOAD_H_
