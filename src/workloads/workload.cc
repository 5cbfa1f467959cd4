#include "src/workloads/workload.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/check.h"
#include "src/event/stream_queue.h"

namespace klink {

SyntheticFeed::SyntheticFeed(std::vector<SourceSpec> sources,
                             std::unique_ptr<DelayModel> delay, uint64_t seed,
                             TimeMicros start_time)
    : delay_(std::move(delay)), rng_(seed), generated_through_(start_time - 1) {
  KLINK_CHECK(!sources.empty());
  KLINK_CHECK(delay_ != nullptr);
  sources_.reserve(sources.size());
  for (SourceSpec& spec : sources) {
    KLINK_CHECK_GT(spec.events_per_second, 0.0);
    KLINK_CHECK_GT(spec.watermark_period, 0);
    SourceState state;
    state.spec = spec;
    if (spec.key_skew > 0.0) {
      state.key_sampler =
          std::make_shared<ZipfSampler>(spec.key_cardinality, spec.key_skew);
    }
    state.next_event_time = static_cast<double>(start_time);
    state.next_watermark_time = start_time + spec.watermark_period;
    state.next_marker_time = start_time + spec.marker_period;
    sources_.push_back(state);
  }
}

void SyntheticFeed::GenerateUpTo(TimeMicros horizon) {
  // Elements are generated in strict global generation-time order across
  // sources and element kinds, so the RNG draw sequence (burst switches,
  // keys, values, delay samples) and the generation order that breaks
  // delivery ties depend only on how far generation has advanced — never
  // on how the caller slices its poll horizons. Polling to 6 s in one call
  // therefore yields the byte-identical stream to polling 2.5 s, 3 s, then
  // 6 s; crash-replay legs and paced replay both rely on this invariance.
  while (true) {
    size_t best_src = 0;
    int best_kind = -1;  // 0 data, 1 watermark, 2 latency marker
    double best_time = 0.0;
    for (size_t i = 0; i < sources_.size(); ++i) {
      const SourceState& src = sources_[i];
      const double cand[3] = {src.next_event_time,
                              static_cast<double>(src.next_watermark_time),
                              static_cast<double>(src.next_marker_time)};
      for (int k = 0; k < 3; ++k) {
        if (best_kind < 0 || cand[k] < best_time) {
          best_src = i;
          best_kind = k;
          best_time = cand[k];
        }
      }
    }
    if (best_time > static_cast<double>(horizon)) break;
    SourceState& src = sources_[best_src];
    if (best_kind == 0) {
      // Data event, with bursty rate modulation when configured.
      if (src.spec.burstiness > 0.0 &&
          static_cast<TimeMicros>(src.next_event_time) >=
              src.next_burst_switch) {
        src.rate_multiplier =
            1.0 + src.spec.burstiness * (2.0 * rng_.NextDouble() - 1.0);
        src.next_burst_switch =
            static_cast<TimeMicros>(src.next_event_time) +
            rng_.NextInt(SecondsToMicros(1), SecondsToMicros(4));
      }
      const double interval =
          1e6 / (src.spec.events_per_second * src.rate_multiplier);
      const TimeMicros gen = static_cast<TimeMicros>(src.next_event_time);
      const uint64_t key =
          src.key_sampler != nullptr
              ? static_cast<uint64_t>(src.key_sampler->Sample(rng_) - 1)
              : static_cast<uint64_t>(
                    rng_.NextInt(0, src.spec.key_cardinality - 1));
      const double value =
          src.spec.value_min +
          rng_.NextDouble() * (src.spec.value_max - src.spec.value_min);
      Event e = MakeDataEvent(gen, gen + delay_->Sample(rng_), key, value,
                              src.spec.payload_bytes);
      pending_.push_back(FeedElement{static_cast<int>(best_src), e});
      ++generated_;
      src.next_event_time += interval;
    } else if (best_kind == 1) {
      // Watermark: timestamp trails emission by the lateness bound.
      const TimeMicros gen = src.next_watermark_time;
      Event wm = MakeWatermark(gen - src.spec.watermark_lag,
                               gen + delay_->Sample(rng_));
      pending_.push_back(FeedElement{static_cast<int>(best_src), wm});
      src.next_watermark_time += src.spec.watermark_period;
    } else {
      const TimeMicros gen = src.next_marker_time;
      Event m = MakeLatencyMarker(gen, gen + delay_->Sample(rng_));
      pending_.push_back(FeedElement{static_cast<int>(best_src), m});
      src.next_marker_time += src.spec.marker_period;
    }
  }
  generated_through_ = std::max(generated_through_, horizon);
}

void SyntheticFeed::SortDue(TimeMicros now) {
  due_.clear();
  TimeMicros lo = std::numeric_limits<TimeMicros>::max();
  TimeMicros hi = std::numeric_limits<TimeMicros>::min();
  for (size_t i = 0; i < pending_.size(); ++i) {
    const TimeMicros t = pending_[i].event.ingest_time;
    if (t > now) continue;
    due_.push_back(DueKey{t, i});
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  const size_t n = due_.size();
  if (n < 2) return;
  // One counting pass scatters the keys, still in index order, into n
  // equal-width ingest-time buckets; std::sort then orders each bucket. The
  // bucket index only has to be monotone in ingest time, which the scaled
  // floating-point product is. A heavy delay tail can stretch the span so
  // most keys share one bucket, which is why the per-bucket sort must not
  // be quadratic.
  const double scale =
      static_cast<double>(n) / (static_cast<double>(hi - lo) + 1.0);
  const auto bucket = [lo, scale, n](const DueKey& k) {
    return std::min(n - 1, static_cast<size_t>(
                               static_cast<double>(k.ingest_time - lo) *
                               scale));
  };
  bucket_offsets_.assign(n + 1, 0);
  for (const DueKey& k : due_) ++bucket_offsets_[bucket(k) + 1];
  for (size_t b = 1; b <= n; ++b) {
    bucket_offsets_[b] += bucket_offsets_[b - 1];
  }
  bucketed_.resize(n);
  for (const DueKey& k : due_) bucketed_[bucket_offsets_[bucket(k)]++] = k;
  // The scatter advanced each bucket's offset to its end.
  size_t begin = 0;
  for (size_t b = 0; b < n; ++b) {
    const size_t end = bucket_offsets_[b];
    if (end - begin > 1) {
      std::sort(bucketed_.begin() + static_cast<ptrdiff_t>(begin),
                bucketed_.begin() + static_cast<ptrdiff_t>(end));
    }
    begin = end;
  }
  due_.swap(bucketed_);
}

void SyntheticFeed::PollUpTo(TimeMicros now, int64_t max_bytes,
                             std::vector<FeedElement>* out) {
  // Generation advances a slice at a time, and only once every element due
  // by what was generated has been delivered. Delays are non-negative, so
  // an element generated later is ingested no earlier than the generation
  // frontier, and the elements delivered, and each poll's prefix of them,
  // are those of generating through `now` at once. What the byte budget
  // refuses therefore waits in pending_, which holds at most one slice
  // plus the delay tail, however far the feed runs ahead of its consumer.
  constexpr DurationMicros kMaxGenerationSlice = MillisToMicros(500);
  int64_t delivered = 0;
  const auto admit = [&delivered, max_bytes](const FeedElement& fe) {
    const int64_t sz =
        fe.event.payload_bytes + StreamQueue::kPerEventOverhead;
    if (delivered > 0 && delivered + sz > max_bytes) return false;
    delivered += sz;
    return true;
  };
  while (true) {
    if (!backlog_ && generated_through_ < now) {
      GenerateUpTo(std::min(now, generated_through_ + kMaxGenerationSlice));
    }
    SortDue(std::min(now, generated_through_));
    size_t taken = 0;
    while (taken < due_.size() && admit(pending_[due_[taken].index])) {
      FeedElement& fe = pending_[due_[taken++].index];
      out->push_back(fe);
      fe.source_index = -1;  // delivered: dropped below
    }
    backlog_ = taken < due_.size();
    if (taken > 0) {
      std::erase_if(pending_,
                    [](const FeedElement& fe) { return fe.source_index < 0; });
    }
    if (backlog_ || generated_through_ >= now) return;
  }
}

}  // namespace klink
