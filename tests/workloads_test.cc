#include "src/workloads/workload.h"

#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "src/common/serialize.h"
#include "src/workloads/lrb.h"
#include "src/workloads/nyt.h"
#include "src/workloads/ysb.h"

namespace klink {
namespace {

std::vector<EventFeed::FeedElement> Drain(EventFeed& feed, TimeMicros until) {
  std::vector<EventFeed::FeedElement> out;
  feed.PollUpTo(until, /*max_bytes=*/1ll << 40, &out);
  return out;
}

TEST(SyntheticFeedTest, RateApproximatelyHonored) {
  SourceSpec spec;
  spec.events_per_second = 1000;
  SyntheticFeed feed({spec}, std::make_unique<ConstantDelay>(0), 1, 0);
  const auto elements = Drain(feed, SecondsToMicros(10));
  int64_t data = 0;
  for (const auto& fe : elements) data += fe.event.is_data() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(data), 10000.0, 150.0);
}

TEST(SyntheticFeedTest, DeliveryInIngestionOrder) {
  SourceSpec spec;
  spec.events_per_second = 2000;
  SyntheticFeed feed({spec},
                     std::make_unique<UniformDelay>(0, MillisToMicros(80)), 2,
                     0);
  const auto elements = Drain(feed, SecondsToMicros(5));
  for (size_t i = 1; i < elements.size(); ++i) {
    EXPECT_GE(elements[i].event.ingest_time,
              elements[i - 1].event.ingest_time);
  }
}

TEST(SyntheticFeedTest, WatermarksCarryLatenessBound) {
  SourceSpec spec;
  spec.events_per_second = 100;
  spec.watermark_period = MillisToMicros(500);
  spec.watermark_lag = MillisToMicros(150);
  SyntheticFeed feed({spec}, std::make_unique<ConstantDelay>(0), 3, 0);
  int watermarks = 0;
  for (const auto& fe : Drain(feed, SecondsToMicros(5))) {
    if (!fe.event.is_watermark()) continue;
    ++watermarks;
    // Timestamp trails generation by the lag; generation = ingest here
    // (zero delay).
    EXPECT_EQ(fe.event.ingest_time - fe.event.event_time,
              MillisToMicros(150));
  }
  EXPECT_EQ(watermarks, 10);
}

TEST(SyntheticFeedTest, WatermarkContractMostlyHolds) {
  // With the lag covering the max delay, almost no data event arrives
  // whose event-time undercuts an already-delivered watermark.
  SourceSpec spec;
  spec.events_per_second = 2000;
  spec.watermark_period = MillisToMicros(250);
  spec.watermark_lag = MillisToMicros(120);
  SyntheticFeed feed(
      {spec},
      std::make_unique<UniformDelay>(MillisToMicros(5), MillisToMicros(100)),
      4, 0);
  TimeMicros max_watermark = -1;
  int64_t violations = 0, data = 0;
  for (const auto& fe : Drain(feed, SecondsToMicros(20))) {
    if (fe.event.is_watermark()) {
      max_watermark = std::max(max_watermark, fe.event.event_time);
    } else if (fe.event.is_data()) {
      ++data;
      if (fe.event.event_time < max_watermark) ++violations;
    }
  }
  EXPECT_GT(data, 30000);
  EXPECT_LT(static_cast<double>(violations) / static_cast<double>(data),
            0.01);
}

TEST(SyntheticFeedTest, MaxBytesTruncatesAndResumes) {
  SourceSpec spec;
  spec.events_per_second = 1000;
  spec.payload_bytes = 100;
  SyntheticFeed feed({spec}, std::make_unique<ConstantDelay>(0), 5, 0);
  std::vector<EventFeed::FeedElement> first;
  feed.PollUpTo(SecondsToMicros(1), /*max_bytes=*/1320, &first);
  EXPECT_EQ(first.size(), 10u);  // 10 * (100 + 32 overhead)
  // Nothing lost: the rest arrives on the next poll.
  const auto rest = Drain(feed, SecondsToMicros(1));
  EXPECT_GT(rest.size(), 900u);
}

TEST(SyntheticFeedTest, BurstinessPreservesMeanRate) {
  SourceSpec steady;
  steady.events_per_second = 1000;
  SourceSpec bursty = steady;
  bursty.burstiness = 0.5;
  SyntheticFeed f1({steady}, std::make_unique<ConstantDelay>(0), 6, 0);
  SyntheticFeed f2({bursty}, std::make_unique<ConstantDelay>(0), 6, 0);
  const auto a = Drain(f1, SecondsToMicros(60));
  const auto b = Drain(f2, SecondsToMicros(60));
  EXPECT_NEAR(static_cast<double>(b.size()),
              static_cast<double>(a.size()),
              static_cast<double>(a.size()) * 0.15);
}

TEST(SyntheticFeedTest, DeterministicForSeed) {
  SourceSpec spec;
  spec.events_per_second = 500;
  auto run = [&spec] {
    SyntheticFeed feed({spec}, MakePaperZipfDelay(), 42, 0);
    std::vector<EventFeed::FeedElement> out;
    feed.PollUpTo(SecondsToMicros(3), 1ll << 40, &out);
    int64_t checksum = 0;
    for (const auto& fe : out) {
      checksum += fe.event.ingest_time + static_cast<int64_t>(fe.event.key);
    }
    return checksum;
  };
  EXPECT_EQ(run(), run());
}

constexpr int64_t kUnbounded = std::numeric_limits<int64_t>::max();
constexpr DurationMicros kCycle = MillisToMicros(120);

/// One feed polled on a fixed schedule, and the stream it must deliver.
struct FeedCase {
  const char* name;
  std::unique_ptr<EventFeed> (*make)();
  /// Polls every `step` up to `until` (a single poll at `until` when 0),
  /// each bounded by `max_bytes`.
  DurationMicros step;
  TimeMicros until;
  int64_t max_bytes;
  int64_t elements;
  uint64_t hash;
};

/// Polls `feed` on the case's schedule, then unbounded at the final time
/// until a poll returns nothing, and fingerprints what it delivered:
/// FNV-1a 64 over 41 little-endian bytes per element (source_index i32,
/// kind u8, event_time and ingest_time i64, key u64, value as double bits,
/// payload_bytes u32), in delivery order.
std::pair<int64_t, uint64_t> DeliveredStream(EventFeed& feed,
                                             const FeedCase& c) {
  std::vector<EventFeed::FeedElement> out;
  for (TimeMicros t = c.step; c.step > 0 && t < c.until; t += c.step) {
    feed.PollUpTo(t, c.max_bytes, &out);
  }
  feed.PollUpTo(c.until, c.max_bytes, &out);
  size_t before = 0;
  do {
    before = out.size();
    feed.PollUpTo(c.until, kUnbounded, &out);
  } while (out.size() != before);
  StateWriter w;
  for (const EventFeed::FeedElement& fe : out) {
    w.PutU32(static_cast<uint32_t>(fe.source_index));
    w.PutU8(static_cast<uint8_t>(fe.event.kind));
    w.PutI64(fe.event.event_time);
    w.PutI64(fe.event.ingest_time);
    w.PutU64(fe.event.key);
    w.PutDouble(fe.event.value);
    w.PutU32(fe.event.payload_bytes);
  }
  return {static_cast<int64_t>(out.size()),
          Fnv1aBytes(w.bytes().data(), w.bytes().size())};
}

class FeedStreamTest : public ::testing::TestWithParam<FeedCase> {};

// The delivered stream is pinned: its order is (ingest time, generation
// order), and it must not depend on how the caller slices its poll
// horizons or bounds each poll's bytes. A crash-replay leg polls in slices
// around the kill point while its baseline polls once to the end, and the
// two must compare byte-identically; stochastic delay models (watermark
// and marker delay samples interleaving with key/value draws) once made
// the RNG draw order horizon-dependent.
TEST_P(FeedStreamTest, SlicedPollingMatchesOneShot) {
  const FeedCase& c = GetParam();
  const std::unique_ptr<EventFeed> feed = c.make();
  const auto [elements, hash] = DeliveredStream(*feed, c);
  EXPECT_EQ(elements, c.elements);
  EXPECT_EQ(hash, c.hash) << std::hex << "got " << hash;
}

std::unique_ptr<EventFeed> YsbUniformFeed() {
  return MakeYsbFeed(YsbConfig{}, MakePaperUniformDelay(), 7, 0);
}

std::unique_ptr<EventFeed> LrbZipfFeed() {
  return MakeLrbFeed(LrbConfig{}, MakePaperZipfDelay(), 7, 0);
}

std::unique_ptr<EventFeed> ParetoFeed() {
  SourceSpec spec;
  spec.events_per_second = 2000;
  return std::make_unique<SyntheticFeed>(
      std::vector<SourceSpec>{spec}, MakeDefaultParetoDelay(), 7, 0);
}

// Two identical zero-delay sources: every timestamp is shared, so the
// order rests entirely on the generation-order tie-break.
std::unique_ptr<EventFeed> TiedFeed() {
  SourceSpec spec;
  spec.events_per_second = 1000;
  spec.watermark_period = MillisToMicros(200);
  spec.marker_period = MillisToMicros(200);
  return std::make_unique<SyntheticFeed>(std::vector<SourceSpec>{spec, spec},
                                         std::make_unique<ConstantDelay>(0),
                                         7, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FeedStreamTest,
    ::testing::Values(
        FeedCase{"YsbUniform", YsbUniformFeed, kCycle, SecondsToMicros(30),
                 kUnbounded, 31625, 0xa344035f63f30883ull},
        FeedCase{"LrbZipf", LrbZipfFeed, kCycle, SecondsToMicros(30),
                 kUnbounded, 89543, 0x3eea72161fcd4defull},
        FeedCase{"LrbZipfMaxBytes4096", LrbZipfFeed, kCycle,
                 SecondsToMicros(30), 4096, 89543, 0x3eea72161fcd4defull},
        FeedCase{"ParetoOnePoll", ParetoFeed, 0, SecondsToMicros(20),
                 kUnbounded, 40060, 0xd34b89a002c2321dull},
        FeedCase{"ParetoSliced", ParetoFeed, kCycle, SecondsToMicros(20),
                 kUnbounded, 40060, 0xd34b89a002c2321dull},
        FeedCase{"TiedSources", TiedFeed, kCycle, SecondsToMicros(10),
                 kUnbounded, 20202, 0xec03d36373bbb1caull}),
    [](const ::testing::TestParamInfo<FeedCase>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(YsbWorkloadTest, PipelineShape) {
  YsbConfig config;
  auto q = MakeYsbQuery(0, config);
  EXPECT_EQ(q->num_operators(), 5);
  EXPECT_EQ(q->sources().size(), 1u);
  EXPECT_EQ(q->windowed_operators().size(), 1u);
  EXPECT_EQ(q->windowed_operators()[0]->DeadlinePeriod(), config.window_size);
}

TEST(YsbWorkloadTest, CampaignMappingGroupsAds) {
  YsbConfig config;
  config.ads_per_campaign = 10;
  auto q = MakeYsbQuery(0, config);
  // Operator 2 is the ad->campaign projection.
  VectorEmitter out;
  q->op(2).Process(MakeDataEvent(0, 0, /*ad=*/57, 1.0), 0, out);
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(out.events[0].key, 5u);
}

TEST(LrbWorkloadTest, PipelineShape) {
  LrbConfig config;
  auto q = MakeLrbQuery(0, config);
  EXPECT_EQ(q->sources().size(), 3u);
  EXPECT_EQ(q->windowed_operators().size(), 3u);  // join + accident + toll
  // The toll window's deadline period is a third of the accident slide.
  EXPECT_EQ(q->windowed_operators()[2]->DeadlinePeriod(),
            config.accident_slide / 3);
}

TEST(LrbWorkloadTest, FeedHasThreeSubStreams) {
  LrbConfig config;
  config.events_per_substream_per_second = 200;
  config.burstiness = 0.0;  // exact rates for this assertion
  auto feed = MakeLrbFeed(config, std::make_unique<ConstantDelay>(0), 1, 0);
  std::vector<EventFeed::FeedElement> out;
  feed->PollUpTo(SecondsToMicros(2), 1ll << 40, &out);
  int per_source[3] = {0, 0, 0};
  for (const auto& fe : out) {
    ASSERT_GE(fe.source_index, 0);
    ASSERT_LT(fe.source_index, 3);
    if (fe.event.is_data()) ++per_source[fe.source_index];
  }
  for (int s = 0; s < 3; ++s) EXPECT_NEAR(per_source[s], 400, 20);
}

TEST(NytWorkloadTest, PipelineShape) {
  NytConfig config;
  auto q = MakeNytQuery(0, config);
  EXPECT_EQ(q->num_operators(), 7);  // long stateless prefix + window + sink
  EXPECT_EQ(q->windowed_operators().size(), 1u);
  EXPECT_EQ(q->windowed_operators()[0]->DeadlinePeriod(), config.slide);
}

TEST(NytWorkloadTest, CellMappingBoundsKeys) {
  NytConfig config;
  config.num_cells = 50;
  auto q = MakeNytQuery(0, config);
  VectorEmitter out;
  q->op(3).Process(MakeDataEvent(0, 0, /*raw location=*/987654, 1.0), 0, out);
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_LT(out.events[0].key, 50u);
}

}  // namespace
}  // namespace klink
