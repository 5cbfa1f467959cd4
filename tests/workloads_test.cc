#include "src/workloads/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/serialize.h"
#include "src/event/stream_queue.h"
#include "src/operators/aggregate_operator.h"
#include "src/operators/join_operator.h"
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

TEST(SyntheticFeedTest, SteadySourcesKeepExactRates) {
  // Three sub-streams of one feed, each at its own steady rate.
  SourceSpec spec;
  spec.events_per_second = 200;
  SyntheticFeed feed({spec, spec, spec}, std::make_unique<ConstantDelay>(0),
                     1, 0);
  int per_source[3] = {0, 0, 0};
  for (const auto& fe : Drain(feed, SecondsToMicros(2))) {
    ASSERT_GE(fe.source_index, 0);
    ASSERT_LT(fe.source_index, 3);
    if (fe.event.is_data()) ++per_source[fe.source_index];
  }
  for (int s = 0; s < 3; ++s) EXPECT_NEAR(per_source[s], 400, 20);
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

bool SameElement(const EventFeed::FeedElement& a,
                 const EventFeed::FeedElement& b) {
  return a.source_index == b.source_index && a.event.kind == b.event.kind &&
         a.event.event_time == b.event.event_time &&
         a.event.ingest_time == b.event.ingest_time &&
         a.event.key == b.event.key && a.event.value == b.event.value &&
         a.event.payload_bytes == b.event.payload_bytes;
}

// A poll delivers the prefix of the feed's due elements that its byte
// budget admits (at least one, none past the budget), whatever the budgets
// and horizons of earlier polls. The due elements are the ones an earlier
// poll refused, then what an unbounded poll of a twin feed returns at the
// same horizon. The feed generates in slices and pauses while a refused
// element waits, so this holds it to the contract of generating through
// every horizon at once.
TEST(SyntheticFeedTest, BoundedPollsDeliverTheDuePrefix) {
  for (auto* make : {YsbUniformFeed, LrbZipfFeed, ParetoFeed, TiedFeed}) {
    const std::unique_ptr<EventFeed> feed = make();
    const std::unique_ptr<EventFeed> twin = make();
    Rng rng(11);
    std::deque<EventFeed::FeedElement> due;
    int64_t refusals = 0;
    TimeMicros now = 0;
    for (int poll = 0; poll < 1500; ++poll) {
      // Mostly a cycle or less, now and then several seconds at once.
      now += rng.NextInt(0, 9) == 0 ? rng.NextInt(0, SecondsToMicros(3))
                                    : rng.NextInt(0, kCycle);
      const int64_t max_bytes =
          rng.NextInt(0, 3) == 0 ? kUnbounded : rng.NextInt(0, 40000);
      std::vector<EventFeed::FeedElement> newly_due;
      twin->PollUpTo(now, kUnbounded, &newly_due);
      due.insert(due.end(), newly_due.begin(), newly_due.end());
      std::vector<EventFeed::FeedElement> got;
      feed->PollUpTo(now, max_bytes, &got);
      int64_t bytes = 0;
      size_t want = 0;
      for (; want < due.size(); ++want) {
        const int64_t sz =
            due[want].event.payload_bytes + StreamQueue::kPerEventOverhead;
        if (want > 0 && bytes + sz > max_bytes) break;
        bytes += sz;
      }
      refusals += want < due.size() ? 1 : 0;
      ASSERT_EQ(got.size(), want) << "poll " << poll << " at " << now;
      for (size_t i = 0; i < want; ++i) {
        ASSERT_TRUE(SameElement(got[i], due[i])) << "poll " << poll;
      }
      due.erase(due.begin(), due.begin() + static_cast<ptrdiff_t>(want));
    }
    EXPECT_GT(refusals, 100);
  }
}

// Generation runs at most a slice ahead of what the consumer takes: a feed
// polled far ahead under a budget that admits one element per poll
// generates about one slice, not the whole horizon, however far the
// horizon runs (an open-loop feed above the drain rate used to hold every
// refused element).
TEST(SyntheticFeedTest, RefusedElementsHoldGenerationBack) {
  const std::unique_ptr<EventFeed> feed = ParetoFeed();  // 2000 events/s
  std::vector<EventFeed::FeedElement> out;
  for (int poll = 1; poll <= 100; ++poll) {
    feed->PollUpTo(SecondsToMicros(60) * poll, /*max_bytes=*/0, &out);
  }
  EXPECT_EQ(out.size(), 100u);
  EXPECT_LT(feed->generated_events(), 2000);
}

/// An operator's name, per-event cost and selectivity hint.
struct OperatorPin {
  const char* name;
  double cost;
  double selectivity;
};

void ExpectOperators(const Query& q, const std::vector<OperatorPin>& pins) {
  ASSERT_EQ(q.num_operators(), static_cast<int>(pins.size()));
  for (int i = 0; i < q.num_operators(); ++i) {
    const OperatorPin& pin = pins[static_cast<size_t>(i)];
    SCOPED_TRACE(pin.name);
    EXPECT_EQ(q.op(i).name(), pin.name);
    EXPECT_EQ(q.op(i).cost_per_event(), pin.cost);
    EXPECT_EQ(q.op(i).selectivity_hint(), pin.selectivity);
  }
}

/// Size and slide of the windowed operator `op`, {-1, -1} for any other.
std::pair<DurationMicros, DurationMicros> WindowOf(const Operator& op) {
  const WindowAssigner* assigner = nullptr;
  if (const auto* agg = dynamic_cast<const WindowAggregateOperator*>(&op)) {
    assigner = &agg->assigner();
  } else if (const auto* join = dynamic_cast<const WindowJoinOperator*>(&op)) {
    assigner = &join->assigner();
  }
  if (assigner == nullptr) return {-1, -1};
  return {assigner->size(), assigner->slide()};
}

/// What a feed delivers in its first 5 s: its distinct sources, and its
/// data events' payload sizes, key range and value range.
struct FeedShape {
  size_t sources = 0;
  std::set<uint32_t> payload_bytes;
  uint64_t min_key = std::numeric_limits<uint64_t>::max();
  uint64_t max_key = 0;
  double min_value = std::numeric_limits<double>::max();
  double max_value = std::numeric_limits<double>::lowest();
};

FeedShape ShapeOf(EventFeed& feed) {
  FeedShape shape;
  std::set<int32_t> sources;
  for (const auto& fe : Drain(feed, SecondsToMicros(5))) {
    sources.insert(fe.source_index);
    if (!fe.event.is_data()) continue;
    shape.payload_bytes.insert(fe.event.payload_bytes);
    shape.min_key = std::min(shape.min_key, fe.event.key);
    shape.max_key = std::max(shape.max_key, fe.event.key);
    shape.min_value = std::min(shape.min_value, fe.event.value);
    shape.max_value = std::max(shape.max_value, fe.event.value);
  }
  shape.sources = sources.size();
  return shape;
}

/// Values are drawn from [lo, hi): within it, and within 1% of each end.
void ExpectValueRange(const FeedShape& shape, double lo, double hi) {
  const double tolerance = (hi - lo) * 0.01;
  EXPECT_GE(shape.min_value, lo);
  EXPECT_LT(shape.min_value, lo + tolerance);
  EXPECT_LT(shape.max_value, hi);
  EXPECT_GT(shape.max_value, hi - tolerance);
}

// The pipeline shape, costs, windows and feed of each workload are pinned
// at the values the paper's pipelines were reproduced with; a constant
// that moves would otherwise show only in the hashes and figure tables.
TEST(YsbWorkloadTest, PipelineShape) {
  YsbConfig config;
  auto q = MakeYsbQuery(0, config);
  EXPECT_EQ(q->num_operators(), 5);
  EXPECT_EQ(q->sources().size(), 1u);
  ExpectOperators(*q, {{"ad-events", 30.0, 1.0},
                       {"view-filter", 35.0, 1.0 / 3.0},
                       {"project-join-campaign", 25.0, 1.0},
                       {"campaign-count", 60.0, 0.05},
                       {"output", 5.0, 1.0}});
  EXPECT_EQ(WindowOf(q->op(3)),
            std::make_pair(SecondsToMicros(3), SecondsToMicros(3)));
  EXPECT_EQ(config.window_size, SecondsToMicros(3));

  auto feed = MakeYsbFeed(config, std::make_unique<ConstantDelay>(0), 1, 0);
  const FeedShape shape = ShapeOf(*feed);
  EXPECT_EQ(shape.sources, 1u);
  EXPECT_EQ(shape.payload_bytes, std::set<uint32_t>{96});
  EXPECT_EQ(shape.min_key, 0u);
  EXPECT_EQ(shape.max_key, 999u);  // 100 campaigns x 10 ads
  ExpectValueRange(shape, 0.0, 100.0);
}

TEST(YsbWorkloadTest, CampaignMappingGroupsAds) {
  YsbConfig config;
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
  ExpectOperators(*q, {{"position-reports-0", 25.0, 1.0},
                       {"segment-map-0", 22.0, 1.0},
                       {"position-reports-1", 25.0, 1.0},
                       {"segment-map-1", 22.0, 1.0},
                       {"position-reports-2", 25.0, 1.0},
                       {"segment-map-2", 22.0, 1.0},
                       {"segment-join", 42.0, 0.05},
                       {"accident-detection", 40.0, 0.05},
                       {"toll-calculation", 30.0, 0.05},
                       {"toll-output", 5.0, 1.0}});
  // The join, accident and toll windows; the toll window's slide is a
  // third of the accident slide.
  EXPECT_EQ(WindowOf(q->op(6)),
            std::make_pair(SecondsToMicros(2), SecondsToMicros(2)));
  EXPECT_EQ(WindowOf(q->op(7)),
            std::make_pair(SecondsToMicros(5), SecondsToMicros(3)));
  EXPECT_EQ(WindowOf(q->op(8)),
            std::make_pair(SecondsToMicros(1), SecondsToMicros(1)));
  EXPECT_EQ(config.accident_slide, SecondsToMicros(3));

  auto feed = MakeLrbFeed(config, std::make_unique<ConstantDelay>(0), 1, 0);
  const FeedShape shape = ShapeOf(*feed);
  EXPECT_EQ(shape.sources, 3u);
  EXPECT_EQ(shape.payload_bytes, std::set<uint32_t>{112});
  EXPECT_EQ(shape.min_key, 0u);
  EXPECT_EQ(shape.max_key, 99u);  // 100 highway segments
  ExpectValueRange(shape, 0.0, 180.0);
}

TEST(LrbWorkloadTest, FeedHasThreeSubStreams) {
  LrbConfig config;
  config.events_per_substream_per_second = 200;
  auto feed = MakeLrbFeed(config, std::make_unique<ConstantDelay>(0), 1, 0);
  std::vector<EventFeed::FeedElement> out;
  feed->PollUpTo(SecondsToMicros(2), 1ll << 40, &out);
  int per_source[3] = {0, 0, 0};
  for (const auto& fe : out) {
    ASSERT_GE(fe.source_index, 0);
    ASSERT_LT(fe.source_index, 3);
    if (fe.event.is_data()) ++per_source[fe.source_index];
  }
  for (int s = 0; s < 3; ++s) EXPECT_GT(per_source[s], 0);
}

TEST(NytWorkloadTest, PipelineShape) {
  NytConfig config;
  auto q = MakeNytQuery(0, config);
  EXPECT_EQ(q->num_operators(), 7);  // long stateless prefix + window + sink
  ExpectOperators(*q, {{"taxi-trips", 12.0, 1.0},
                       {"parse", 17.0, 1.0},
                       {"valid-trip", 12.0, 0.9},
                       {"pickup-cell", 12.0, 1.0},
                       {"fare-enrich", 12.0, 1.0},
                       {"fare-average", 35.0, 0.05},
                       {"dashboard", 5.0, 1.0}});
  EXPECT_EQ(WindowOf(q->op(5)),
            std::make_pair(SecondsToMicros(2), SecondsToMicros(1)));
  EXPECT_EQ(config.slide, SecondsToMicros(1));

  auto feed = MakeNytFeed(config, std::make_unique<ConstantDelay>(0), 1, 0);
  const FeedShape shape = ShapeOf(*feed);
  EXPECT_EQ(shape.sources, 1u);
  EXPECT_EQ(shape.payload_bytes, std::set<uint32_t>{128});
  EXPECT_EQ(shape.min_key, 0u);
  EXPECT_EQ(shape.max_key, 3198u);  // raw location ids: 16 per cell
  ExpectValueRange(shape, 2.5, 80.0);
}

TEST(NytWorkloadTest, CellMappingBoundsKeys) {
  NytConfig config;
  auto q = MakeNytQuery(0, config);
  VectorEmitter out;
  q->op(3).Process(MakeDataEvent(0, 0, /*raw location=*/987654, 1.0), 0, out);
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_LT(out.events[0].key, 200u);  // 200 grid cells
  EXPECT_EQ(out.events[0].key, 987654u % 200u);
}

}  // namespace
}  // namespace klink
