// End-to-end tests of the TCP ingest path over real loopback sockets:
//
//  1. Equivalence: YSB queries fed over loadgen -> IngestServer ->
//     NetworkFeed and served by the lockstep ServeIngest loop produce
//     byte-identical results (count, order-sensitive hash, latencies) to
//     the same queries fed their feeds in-process — the wire protocol,
//     the gateway and the serve loop are transparent, also when a tenant
//     connects only after another one said goodbye. The real-time loop
//     ingests a paced replay and returns on time.
//  2. Backpressure: a blasting client against an undrained gateway keeps
//     the staging queue bounded by the stream's byte budget; nothing is
//     lost once the consumer drains.
//  3. Robustness: malformed frames, unknown streams, protocol violations
//     and abrupt disconnects close the offending connection (with an error
//     frame where possible) without disturbing the server.
//  4. NetworkFeed's run merge delivers what a merge of one element at a
//     time delivers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/harness/experiment.h"
#include "src/net/delay_model.h"
#include "src/net/ingest_gateway.h"
#include "src/net/ingest_server.h"
#include "src/net/loadgen.h"
#include "src/net/serve_loop.h"
#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/runtime/engine.h"
#include "src/workloads/workload.h"
#include "src/workloads/ysb.h"

namespace klink {
namespace {

constexpr uint64_t kSeed = 42;
constexpr TimeMicros kDuration = SecondsToMicros(5);
/// Wire size of one data frame: 8-byte header, 44-byte payload.
constexpr int64_t kDataFrameBytes = 52;

EngineConfig TestEngineConfig() {
  EngineConfig config;
  config.num_cores = 4;
  return config;
}

YsbConfig TestYsbConfig() {
  YsbConfig wc;
  wc.events_per_second = 2000.0;
  return wc;
}

std::unique_ptr<EventFeed> TestFeed(uint64_t seed) {
  return MakeYsbFeed(TestYsbConfig(), std::make_unique<ConstantDelay>(0),
                     seed, /*start_time=*/0);
}

struct SinkSnapshot {
  int64_t results = 0;
  uint64_t hash = 0;
  TimeMicros last_result_time = kNoTime;
  int64_t swm_count = 0;
  double swm_mean = 0.0;
};

SinkSnapshot Snapshot(const Query& query) {
  const SinkOperator& sink = query.sink();
  return {sink.results_received(), sink.results_hash(),
          sink.last_result_time(), sink.swm_latency().count(),
          sink.swm_latency().mean()};
}

void ExpectSameSink(const SinkSnapshot& got, const SinkSnapshot& expected) {
  EXPECT_EQ(got.results, expected.results);
  EXPECT_EQ(got.hash, expected.hash);
  EXPECT_EQ(got.last_result_time, expected.last_result_time);
  EXPECT_EQ(got.swm_count, expected.swm_count);
  EXPECT_DOUBLE_EQ(got.swm_mean, expected.swm_mean);
}

/// Counts the polls a replay makes of the feed it wraps, and the most
/// elements any one poll returned.
class CountingFeed final : public EventFeed {
 public:
  explicit CountingFeed(std::unique_ptr<EventFeed> inner)
      : inner_(std::move(inner)) {}

  void PollUpTo(TimeMicros now, int64_t max_bytes,
                std::vector<FeedElement>* out) override {
    const size_t before = out->size();
    inner_->PollUpTo(now, max_bytes, out);
    ++polls_;
    largest_poll_ = std::max(largest_poll_, out->size() - before);
  }
  int64_t generated_events() const override {
    return inner_->generated_events();
  }

  int64_t polls() const { return polls_; }
  size_t largest_poll() const { return largest_poll_; }

 private:
  std::unique_ptr<EventFeed> inner_;
  int64_t polls_ = 0;
  size_t largest_poll_ = 0;
};

/// In-process, what a replay through kDuration carries: the test feed of
/// `seed` cut at kDuration. remaining() counts the elements through
/// kDuration not yet delivered, as the gateway counts staged ones.
class ReplayedFeed final : public EventFeed {
 public:
  explicit ReplayedFeed(uint64_t seed) : inner_(TestFeed(seed)) {
    std::vector<FeedElement> all;
    TestFeed(seed)->PollUpTo(kDuration, std::numeric_limits<int64_t>::max(),
                             &all);
    remaining_ = static_cast<int64_t>(all.size());
  }

  void PollUpTo(TimeMicros now, int64_t max_bytes,
                std::vector<FeedElement>* out) override {
    const size_t before = out->size();
    inner_->PollUpTo(std::min(now, kDuration), max_bytes, out);
    remaining_ -= static_cast<int64_t>(out->size() - before);
  }
  int64_t generated_events() const override {
    return inner_->generated_events();
  }

  int64_t remaining() const { return remaining_; }

 private:
  std::unique_ptr<EventFeed> inner_;
  int64_t remaining_ = 0;
};

/// The reference run: one query per seed, each fed in-process what its
/// replay carries, and drained the way ServeIngest drains a lockstep run —
/// cycles continue past kDuration until every element has been ingested
/// and every queue is empty.
std::vector<SinkSnapshot> RunInProcess(const std::vector<uint64_t>& seeds) {
  Engine engine(TestEngineConfig(),
                MakePolicy(PolicyKind::kFcfs, KlinkPolicyConfig{}, kSeed));
  std::vector<QueryId> ids;
  std::vector<const ReplayedFeed*> feeds;
  for (size_t q = 0; q < seeds.size(); ++q) {
    auto feed = std::make_unique<ReplayedFeed>(seeds[q]);
    feeds.push_back(feed.get());
    ids.push_back(engine.AddQuery(
        MakeYsbQuery(static_cast<int>(q), TestYsbConfig()), std::move(feed),
        /*deploy_time=*/0));
  }
  const auto pending = [&]() {
    for (size_t q = 0; q < ids.size(); ++q) {
      if (feeds[q]->remaining() > 0 ||
          engine.query(ids[q]).QueuedEvents() > 0) {
        return true;
      }
    }
    return false;
  };
  engine.RunUntil(kDuration);
  // The last whole cycle started before kDuration, so the drain has work.
  EXPECT_TRUE(pending());
  while (pending()) engine.RunFor(engine.config().cycle_length);
  std::vector<SinkSnapshot> sinks;
  for (const QueryId id : ids) sinks.push_back(Snapshot(engine.query(id)));
  return sinks;
}

/// Registers query q's one stream and deploys its YSB query, fed from it.
QueryId AddTenant(Engine* engine, IngestGateway* gateway, int q) {
  const uint32_t stream = MakeStreamId(q, 0);
  gateway->RegisterStream(stream, IngestStreamConfig{});
  return engine->AddQuery(
      MakeYsbQuery(q, TestYsbConfig()),
      std::make_unique<NetworkFeed>(gateway, std::vector<uint32_t>{stream}),
      /*deploy_time=*/0);
}

/// Replays `feed` through `until` as query q's stream, then says goodbye;
/// SendBye returns once the server has closed the connection. A positive
/// `pause` keeps the connection open that long after the last data, before
/// a final Flush and the goodbye. Returns the data events sent.
int64_t Replay(uint16_t port, int q, EventFeed& feed, TimeMicros until,
               double speed, DurationMicros pause = 0) {
  LoadgenConnection conn;
  if (!conn.Connect("127.0.0.1", port, MakeStreamId(q, 0)).ok()) {
    ADD_FAILURE() << "query " << q << " could not connect";
    return -1;
  }
  ReplayOptions opts;
  opts.until = until;
  opts.speed = speed;
  opts.send_bye = pause == 0;
  const Status replayed = ReplayFeed(feed, {&conn}, opts);
  EXPECT_TRUE(replayed.ok()) << replayed.ToString();
  if (pause > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(pause));
    const Status flushed = conn.Flush();
    EXPECT_TRUE(flushed.ok()) << flushed.ToString();
    const Status bye = conn.SendBye();
    EXPECT_TRUE(bye.ok()) << bye.ToString();
  }
  return conn.stats().data_events_sent;
}

TEST(IngestLoopbackTest, TcpIngestMatchesInProcessResults) {
  const SinkSnapshot expected = RunInProcess({kSeed})[0];
  ASSERT_GT(expected.results, 0);
  ASSERT_GT(expected.swm_count, 0);

  // Networked run: same engine, same query, but the feed arrives over a
  // real TCP socket from a blasting client thread, served in lockstep.
  Engine engine(TestEngineConfig(),
                MakePolicy(PolicyKind::kFcfs, KlinkPolicyConfig{}, kSeed));
  IngestGateway gateway;
  const QueryId id = AddTenant(&engine, &gateway, 0);
  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  // The identical feed the reference run consumed, replayed unpaced;
  // TCP flow control and the gateway byte budget pace it for us.
  CountingFeed replay_feed(TestFeed(kSeed));
  int64_t sent = 0;
  std::thread client([&]() {
    sent = Replay(port, 0, replay_feed, kDuration, /*speed=*/0.0);
  });
  ServeIngest(&engine, &server, &gateway, /*coordinator=*/nullptr, kDuration,
              /*lockstep=*/true, /*each_iteration=*/nullptr);
  client.join();

  ExpectSameSink(Snapshot(engine.query(id)), expected);

  // The wire made the trip: every data event the client sent was decoded
  // from TCP frames and ingested, none synthesized locally.
  EXPECT_GT(sent, 0);
  EXPECT_EQ(gateway.data_events(MakeStreamId(0, 0)), sent);
  EXPECT_EQ(engine.metrics().ingested_events(), sent);
  EXPECT_GT(gateway.metrics().bytes_read(), 0);
  EXPECT_EQ(gateway.metrics().malformed_frames(), 0);

  // The blast streamed the run in virtual-time slices: no poll returned
  // more than one slice's data events (at the peak burst rate) plus its
  // watermarks and latency markers.
  const YsbConfig wc = TestYsbConfig();
  const size_t slice_elements =
      static_cast<size_t>(std::ceil(wc.events_per_second *
                                    (1.0 + wc.burstiness) *
                                    static_cast<double>(kBlastSlice) /
                                    1e6)) +
      static_cast<size_t>(kBlastSlice / wc.watermark_period + 1) +
      static_cast<size_t>(kBlastSlice / SourceSpec{}.marker_period + 1);
  EXPECT_GT(replay_feed.polls(), 1);
  EXPECT_LE(replay_feed.largest_poll(), slice_elements);
}

// The feed's last watermark and latency marker are due at kDuration, so
// the run reaches its drain while the client is still connected. A client
// that pauses there before its goodbye keeps its connection: the drain
// waits for the goodbye in wall time instead of spending its virtual
// deadline on idle cycles and closing the client mid-replay.
TEST(IngestLoopbackTest, DrainWaitsForPausedClientsGoodbye) {
  const SinkSnapshot expected = RunInProcess({kSeed})[0];

  Engine engine(TestEngineConfig(),
                MakePolicy(PolicyKind::kFcfs, KlinkPolicyConfig{}, kSeed));
  IngestGateway gateway;
  const QueryId id = AddTenant(&engine, &gateway, 0);
  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  int64_t sent = 0;
  std::thread client([&]() {
    const std::unique_ptr<EventFeed> feed = TestFeed(kSeed);
    sent = Replay(port, 0, *feed, kDuration, /*speed=*/0.0,
                  /*pause=*/MillisToMicros(200));
  });
  ServeIngest(&engine, &server, &gateway, /*coordinator=*/nullptr, kDuration,
              /*lockstep=*/true, /*each_iteration=*/nullptr);
  client.join();

  ExpectSameSink(Snapshot(engine.query(id)), expected);
  EXPECT_EQ(gateway.data_events(MakeStreamId(0, 0)), sent);
  EXPECT_TRUE(gateway.end_of_stream(MakeStreamId(0, 0)));
}

// A client that never says goodbye still ends the run: once nothing is
// left to run, the drain waits kGoodbyeWait of wall time for the goodbye,
// then closes the connection.
TEST(IngestLoopbackTest, DrainClosesClientThatNeverSaysGoodbye) {
  const SinkSnapshot expected = RunInProcess({kSeed})[0];

  Engine engine(TestEngineConfig(),
                MakePolicy(PolicyKind::kFcfs, KlinkPolicyConfig{}, kSeed));
  IngestGateway gateway;
  const QueryId id = AddTenant(&engine, &gateway, 0);
  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  std::atomic<bool> served{false};
  std::thread client([&]() {
    LoadgenConnection conn;
    ASSERT_TRUE(conn.Connect("127.0.0.1", port, MakeStreamId(0, 0)).ok());
    const std::unique_ptr<EventFeed> feed = TestFeed(kSeed);
    ReplayOptions opts;
    opts.until = kDuration;
    opts.send_bye = false;
    const Status replayed = ReplayFeed(*feed, {&conn}, opts);
    EXPECT_TRUE(replayed.ok()) << replayed.ToString();
    while (!served) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  const int64_t wall_start = WallMicros();
  ServeIngest(&engine, &server, &gateway, /*coordinator=*/nullptr, kDuration,
              /*lockstep=*/true, /*each_iteration=*/nullptr);
  const int64_t wall = WallMicros() - wall_start;
  served = true;
  client.join();

  ExpectSameSink(Snapshot(engine.query(id)), expected);
  EXPECT_FALSE(gateway.end_of_stream(MakeStreamId(0, 0)));
  EXPECT_GE(wall, kGoodbyeWait);
  EXPECT_LT(wall, kGoodbyeWait + SecondsToMicros(20));
}

// A closed-world lockstep server waits for every registered stream: a
// stream that never connected holds virtual time. Tenant 1 connects only
// after tenant 0's goodbye closed its connection, when no connection is
// open, and both tenants still compute what they compute in-process.
TEST(IngestLoopbackTest, LateTenantHoldsVirtualTime) {
  const std::vector<uint64_t> seeds = {kSeed, kSeed + 1};
  const std::vector<SinkSnapshot> expected = RunInProcess(seeds);
  ASSERT_GT(expected[1].results, 0);

  Engine engine(TestEngineConfig(),
                MakePolicy(PolicyKind::kFcfs, KlinkPolicyConfig{}, kSeed));
  IngestGateway gateway;
  const std::vector<QueryId> ids = {AddTenant(&engine, &gateway, 0),
                                    AddTenant(&engine, &gateway, 1)};
  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  std::vector<int64_t> sent(seeds.size(), 0);
  std::thread client([&]() {
    for (size_t q = 0; q < seeds.size(); ++q) {
      const std::unique_ptr<EventFeed> feed = TestFeed(seeds[q]);
      sent[q] = Replay(port, static_cast<int>(q), *feed, kDuration,
                       /*speed=*/0.0);
    }
  });
  ServeIngest(&engine, &server, &gateway, /*coordinator=*/nullptr, kDuration,
              /*lockstep=*/true, /*each_iteration=*/nullptr);
  client.join();

  EXPECT_EQ(gateway.metrics().connections_accepted(), 2);
  for (size_t q = 0; q < seeds.size(); ++q) {
    SCOPED_TRACE(q);
    ExpectSameSink(Snapshot(engine.query(ids[q])), expected[q]);
    EXPECT_EQ(gateway.data_events(MakeStreamId(static_cast<int>(q), 0)),
              sent[q]);
  }
}

// A dynamic tenant attaches on the engine thread: the I/O thread hands the
// unknown stream's hello over and answers it only once the hook has
// deployed the query, so a client that holds its HELLO_ACK can count on
// the tenant being there. Virtual time holds until it attaches, so the
// tenant still computes what it computes in-process.
TEST(IngestLoopbackTest, DynamicAttachRunsOnTheEngineThread) {
  const SinkSnapshot expected = RunInProcess({kSeed})[0];

  Engine engine(TestEngineConfig(),
                MakePolicy(PolicyKind::kFcfs, KlinkPolicyConfig{}, kSeed));
  IngestGateway gateway;
  const std::thread::id engine_thread = std::this_thread::get_id();
  std::atomic<bool> attached{false};
  std::atomic<bool> attached_on_engine_thread{false};
  QueryId id = 0;
  IngestServerConfig config;
  config.on_unknown_stream = [&](uint32_t stream_id) {
    if (stream_id != MakeStreamId(0, 0) || attached) return false;
    id = AddTenant(&engine, &gateway, 0);
    attached_on_engine_thread = std::this_thread::get_id() == engine_thread;
    attached = true;
    return true;
  };
  IngestServer server(config, &gateway);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  bool attached_before_hello_ack = false;
  std::thread client([&]() {
    LoadgenConnection conn;
    ASSERT_TRUE(conn.Connect("127.0.0.1", port, MakeStreamId(0, 0)).ok());
    attached_before_hello_ack = attached;
    const std::unique_ptr<EventFeed> feed = TestFeed(kSeed);
    ReplayOptions opts;
    opts.until = kDuration;
    const Status replayed = ReplayFeed(*feed, {&conn}, opts);
    EXPECT_TRUE(replayed.ok()) << replayed.ToString();
  });
  ServeIngest(&engine, &server, &gateway, /*coordinator=*/nullptr, kDuration,
              /*lockstep=*/true, [&]() { return !attached; });
  client.join();

  EXPECT_TRUE(attached_before_hello_ack);
  EXPECT_TRUE(attached_on_engine_thread);
  ExpectSameSink(Snapshot(engine.query(id)), expected);
}

// Without lockstep, virtual time tracks the wall clock: the loop returns
// once its wall budget has passed, give or take a bounded slack, and a
// paced replay that ends well inside it is ingested whole.
TEST(IngestLoopbackTest, RealTimeServeIngestsPacedReplay) {
  constexpr TimeMicros kReplay = SecondsToMicros(1);
  constexpr TimeMicros kRun = MillisToMicros(1500);
  Engine engine(TestEngineConfig(),
                MakePolicy(PolicyKind::kFcfs, KlinkPolicyConfig{}, kSeed));
  IngestGateway gateway;
  AddTenant(&engine, &gateway, 0);
  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  int64_t sent = 0;
  std::thread client([&]() {
    const std::unique_ptr<EventFeed> feed = TestFeed(kSeed);
    sent = Replay(port, 0, *feed, kReplay, /*speed=*/1.0);
  });
  const int64_t wall_start = WallMicros();
  ServeIngest(&engine, &server, &gateway, /*coordinator=*/nullptr, kRun,
              /*lockstep=*/false, /*each_iteration=*/nullptr);
  const int64_t wall = WallMicros() - wall_start;
  client.join();

  EXPECT_GE(engine.now(), kRun);
  EXPECT_GE(wall, kRun);
  EXPECT_LT(wall, kRun + SecondsToMicros(1));
  EXPECT_GT(sent, 0);
  EXPECT_EQ(gateway.data_events(MakeStreamId(0, 0)), sent);
  EXPECT_EQ(engine.metrics().ingested_events(), sent);
}

TEST(IngestLoopbackTest, SlowConsumerStaysUnderByteBudget) {
  constexpr int64_t kBudget = 8192;
  constexpr int kEvents = 20000;
  // Staging cost of one default data event (payload + queue overhead).
  constexpr int64_t kEventCost = 64 + StreamQueue::kPerEventOverhead;

  IngestGateway gateway;
  IngestStreamConfig sc;
  sc.byte_budget = kBudget;
  gateway.RegisterStream(7, sc);
  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  LoadgenStats sent;
  std::thread client([port, &sent]() {
    LoadgenConnection conn;
    ASSERT_TRUE(conn.Connect("127.0.0.1", port, 7).ok());
    for (int i = 0; i < kEvents; ++i) {
      // Blocks in send() once the server pauses reads: TCP flow control
      // is the long-haul segment of the backpressure chain.
      ASSERT_TRUE(conn.SendEvent(MakeDataEvent(i, i, 0, 1.0)).ok());
    }
    ASSERT_TRUE(conn.SendBye().ok());
    sent = conn.stats();
  });

  // Phase 1: poll without draining. The gateway must pause the connection
  // at the budget; staged bytes never exceed budget + one event.
  for (int i = 0; i < 200; ++i) {
    server.PollOnce(/*timeout_ms=*/5);
    ASSERT_LE(gateway.staged_bytes(7), kBudget + kEventCost);
  }
  EXPECT_GE(gateway.metrics().stream(7).backpressure_stalls, 1);
  EXPECT_LT(gateway.staged_events(7), kEvents);  // backpressure engaged

  // Phase 2: drain while polling; every event must come through, in order.
  int64_t popped = 0;
  while (popped < kEvents) {
    if (gateway.staged_events(7) == 0) {
      server.PollOnce(/*timeout_ms=*/10);
      continue;
    }
    const Event e = gateway.Pop(7);
    if (e.is_data()) {
      ASSERT_EQ(e.event_time, popped);
      ++popped;
    }
    // Opportunistically resume the paused client.
    if (gateway.staged_bytes(7) < kBudget / 2) server.PollOnce(0);
  }
  client.join();
  while (!gateway.end_of_stream(7)) server.PollOnce(/*timeout_ms=*/10);
  EXPECT_EQ(gateway.staged_events(7), 0);
  EXPECT_LE(gateway.peak_staged_bytes(7), kBudget + kEventCost);
  EXPECT_GT(gateway.metrics().stream(7).stall_micros, 0);

  // Frames are counted once per read, across every pause and resume: the
  // totals are what the client sent (its hello and bye are the two
  // control frames).
  const IngestMetrics& m = gateway.metrics();
  EXPECT_EQ(sent.frames_sent, kEvents + 2);
  EXPECT_EQ(m.frames_decoded(), sent.frames_sent);
  EXPECT_EQ(m.bytes_read(), sent.bytes_sent);
  EXPECT_EQ(m.streams().at(7).frames, kEvents);
  EXPECT_EQ(m.streams().at(7).data_events, sent.data_events_sent);
  EXPECT_EQ(m.streams().at(7).bytes, kEvents * kDataFrameBytes);
  server.Stop();
}

/// Raw-socket client helpers for the robustness tests.
int MustConnect(uint16_t port) {
  StatusOr<int> fd = ConnectTcp("127.0.0.1", port);
  EXPECT_TRUE(fd.ok());
  // The test polls the server and the client socket from one thread, so
  // reads back from the server must not block.
  EXPECT_TRUE(SetNonBlocking(fd.value()).ok());
  return fd.value();
}

void SendBytes(int fd, const std::vector<uint8_t>& bytes) {
  ASSERT_TRUE(SendAll(fd, bytes.data(), bytes.size()).ok());
}

/// Polls the server until the peer closes `fd`, collecting everything the
/// server sent. Scans past non-error frames (a HELLO_ACK precedes any
/// error once the greeting succeeded) and returns the first error frame's
/// code, or 0 if the connection closed without one.
uint16_t DrainUntilClosed(IngestServer& server, int fd) {
  std::vector<uint8_t> received;
  uint8_t chunk[512];
  for (int i = 0; i < 500; ++i) {
    server.PollOnce(/*timeout_ms=*/2);
    const StatusOr<int64_t> n = ReadSome(fd, chunk, sizeof(chunk));
    if (!n.ok()) break;
    if (n.value() > 0) {
      received.insert(received.end(), chunk, chunk + n.value());
      continue;
    }
    if (n.value() == 0) break;  // orderly close from the server
  }
  CloseFd(fd);
  size_t off = 0;
  while (off < received.size()) {
    Frame frame;
    size_t consumed = 0;
    if (DecodeFrame(received.data() + off, received.size() - off, &frame,
                    &consumed) != DecodeResult::kOk) {
      break;
    }
    if (frame.type == FrameType::kError) return frame.error_code;
    off += consumed;
  }
  return 0;
}

/// Polls the server until `want` frames arrived on `fd` (or the peer
/// closed it), and returns them.
std::vector<Frame> ReadFrames(IngestServer& server, int fd, size_t want) {
  std::vector<uint8_t> received;
  std::vector<Frame> frames;
  size_t off = 0;
  uint8_t chunk[512];
  for (int i = 0; i < 500 && frames.size() < want; ++i) {
    server.PollOnce(/*timeout_ms=*/2);
    const StatusOr<int64_t> n = ReadSome(fd, chunk, sizeof(chunk));
    if (!n.ok() || n.value() == 0) break;
    if (n.value() < 0) continue;
    received.insert(received.end(), chunk, chunk + n.value());
    Frame frame;
    size_t consumed = 0;
    while (DecodeFrame(received.data() + off, received.size() - off, &frame,
                       &consumed) == DecodeResult::kOk) {
      frames.push_back(frame);
      off += consumed;
    }
  }
  return frames;
}

// The perfbench driver acks and polls from one thread: SendCheckpointAck
// only queues, and the next PollOnce sends every queued ack, in order, to
// the stream's connection; Stop sends what is still queued.
TEST(IngestLoopbackTest, AcksQueuedOnThePollingThreadReachTheClient) {
  IngestGateway gateway;
  gateway.RegisterStream(1, IngestStreamConfig{});
  gateway.RegisterStream(2, IngestStreamConfig{});
  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());

  const int fd = MustConnect(server.port());
  std::vector<uint8_t> bytes;
  EncodeHello(1, &bytes);
  SendBytes(fd, bytes);
  std::vector<Frame> frames = ReadFrames(server, fd, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kHelloAck);

  for (uint64_t epoch = 1; epoch <= 5; ++epoch) {
    server.SendCheckpointAck(1, epoch, epoch * 10);
    server.SendCheckpointAck(2, epoch, epoch * 20);  // no connection: dropped
  }
  frames = ReadFrames(server, fd, 5);
  ASSERT_EQ(frames.size(), 5u);
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].type, FrameType::kCheckpointAck);
    EXPECT_EQ(frames[i].epoch, i + 1);
    EXPECT_EQ(frames[i].durable_seq, (i + 1) * 10);
  }

  server.SendCheckpointAck(1, 6, 60);
  server.Stop();
  uint8_t chunk[64];
  const StatusOr<int64_t> n = ReadSome(fd, chunk, sizeof(chunk));
  ASSERT_TRUE(n.ok());
  Frame last;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(chunk, static_cast<size_t>(std::max<int64_t>(
                                   n.value(), 0)),
                        &last, &consumed),
            DecodeResult::kOk);
  EXPECT_EQ(last.type, FrameType::kCheckpointAck);
  EXPECT_EQ(last.epoch, 6u);
  EXPECT_EQ(last.durable_seq, 60u);
  CloseFd(fd);
}

TEST(IngestLoopbackTest, MalformedFrameDrawsErrorAndClose) {
  IngestGateway gateway;
  gateway.RegisterStream(1, IngestStreamConfig{});
  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());

  const int fd = MustConnect(server.port());
  std::vector<uint8_t> bytes;
  EncodeHello(1, &bytes);
  bytes.insert(bytes.end(), {0xDE, 0xAD, 0xBE, 0xEF, 0xDE, 0xAD, 0xBE, 0xEF});
  SendBytes(fd, bytes);

  EXPECT_EQ(DrainUntilClosed(server, fd),
            static_cast<uint16_t>(WireError::kMalformedFrame));
  EXPECT_EQ(server.num_connections(), 0);
  EXPECT_EQ(gateway.metrics().malformed_frames(), 1);
  server.Stop();
}

TEST(IngestLoopbackTest, UnknownStreamHelloRejected) {
  IngestGateway gateway;
  gateway.RegisterStream(1, IngestStreamConfig{});
  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());

  const int fd = MustConnect(server.port());
  std::vector<uint8_t> bytes;
  EncodeHello(999, &bytes);
  SendBytes(fd, bytes);

  EXPECT_EQ(DrainUntilClosed(server, fd),
            static_cast<uint16_t>(WireError::kUnknownStream));
  EXPECT_EQ(server.num_connections(), 0);
  server.Stop();
}

TEST(IngestLoopbackTest, ElementBeforeHelloRejected) {
  IngestGateway gateway;
  gateway.RegisterStream(1, IngestStreamConfig{});
  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());

  const int fd = MustConnect(server.port());
  std::vector<uint8_t> bytes;
  EncodeEvent(MakeDataEvent(1, 2, 3, 4.0), /*seq=*/1, &bytes);
  SendBytes(fd, bytes);

  EXPECT_EQ(DrainUntilClosed(server, fd),
            static_cast<uint16_t>(WireError::kProtocolViolation));
  EXPECT_EQ(server.num_connections(), 0);
  server.Stop();
}

TEST(IngestLoopbackTest, MidStreamDisconnectKeepsDeliveredPrefix) {
  IngestGateway gateway;
  gateway.RegisterStream(1, IngestStreamConfig{});
  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());

  const int fd = MustConnect(server.port());
  std::vector<uint8_t> bytes;
  EncodeHello(1, &bytes);
  for (int i = 0; i < 10; ++i) {
    EncodeEvent(MakeDataEvent(i, i, 0, 1.0),
                /*seq=*/static_cast<uint64_t>(i + 1), &bytes);
  }
  SendBytes(fd, bytes);
  CloseFd(fd);  // abrupt: no kBye

  for (int i = 0; i < 200 && server.num_connections() == 0; ++i) {
    server.PollOnce(/*timeout_ms=*/2);  // accept
  }
  ASSERT_GT(server.num_connections(), 0);
  for (int i = 0; i < 200 && server.num_connections() > 0; ++i) {
    server.PollOnce(/*timeout_ms=*/2);  // read + observe the disconnect
  }
  EXPECT_EQ(gateway.staged_events(1), 10);
  EXPECT_EQ(server.num_connections(), 0);
  // No Bye means no end-of-stream promise: the stream's arrival watermark
  // stays finite so a lockstep consumer does not run past the truncation.
  EXPECT_FALSE(gateway.end_of_stream(1));
  EXPECT_LT(gateway.StagedThrough(1),
            std::numeric_limits<TimeMicros>::max());
  server.Stop();
}

TEST(IngestLoopbackTest, VersionSkewRejectedWithTypedError) {
  // A client speaking protocol v1 against a v2 server: the server must
  // answer with the typed kVersionMismatch error and close, not hang or
  // misparse the old layout.
  IngestGateway gateway;
  gateway.RegisterStream(1, IngestStreamConfig{});
  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());

  const int fd = MustConnect(server.port());
  std::vector<uint8_t> bytes;
  EncodeHello(1, &bytes);
  bytes[2] = kWireVersion - 1;  // rewrite the version byte: an old client
  SendBytes(fd, bytes);

  EXPECT_EQ(DrainUntilClosed(server, fd),
            static_cast<uint16_t>(WireError::kVersionMismatch));
  EXPECT_EQ(server.num_connections(), 0);
  EXPECT_EQ(gateway.metrics().malformed_frames(), 1);
  server.Stop();
}

TEST(IngestLoopbackTest, SequenceGapDrawsProtocolViolation) {
  IngestGateway gateway;
  gateway.RegisterStream(1, IngestStreamConfig{});
  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());

  const int fd = MustConnect(server.port());
  std::vector<uint8_t> bytes;
  EncodeHello(1, &bytes);
  EncodeEvent(MakeDataEvent(1, 1, 0, 1.0), /*seq=*/1, &bytes);
  EncodeEvent(MakeDataEvent(2, 2, 0, 1.0), /*seq=*/3, &bytes);  // gap: no 2
  SendBytes(fd, bytes);

  EXPECT_EQ(DrainUntilClosed(server, fd),
            static_cast<uint16_t>(WireError::kProtocolViolation));
  EXPECT_EQ(server.num_connections(), 0);
  // The contiguous prefix before the gap was delivered, and only it
  // counts, besides the hello.
  EXPECT_EQ(gateway.staged_events(1), 1);
  const IngestMetrics& m = gateway.metrics();
  EXPECT_EQ(m.frames_decoded(), 2);
  EXPECT_EQ(m.streams().at(1).frames, 1);
  EXPECT_EQ(m.streams().at(1).data_events, 1);
  EXPECT_EQ(m.streams().at(1).bytes, kDataFrameBytes);
  server.Stop();
}

TEST(IngestLoopbackTest, DuplicateSequencesDroppedSilently) {
  // Replay overlap after a reconnect: duplicates of already-delivered
  // seqs are dropped without error, and delivery resumes at the tail.
  IngestGateway gateway;
  gateway.RegisterStream(1, IngestStreamConfig{});
  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());

  const int fd = MustConnect(server.port());
  std::vector<uint8_t> bytes;
  EncodeHello(1, &bytes);
  for (int i = 0; i < 5; ++i) {
    EncodeEvent(MakeDataEvent(i, i, 0, 1.0),
                /*seq=*/static_cast<uint64_t>(i + 1), &bytes);
  }
  // Duplicate replay of seqs 3..5, then fresh 6..7.
  for (int i = 2; i < 7; ++i) {
    EncodeEvent(MakeDataEvent(i, i, 0, 1.0),
                /*seq=*/static_cast<uint64_t>(i + 1), &bytes);
  }
  EncodeBye(&bytes);
  SendBytes(fd, bytes);

  EXPECT_EQ(DrainUntilClosed(server, fd), 0);  // no error: a clean bye
  EXPECT_EQ(gateway.staged_events(1), 7);
  EXPECT_EQ(gateway.duplicate_events(1), 3);
  EXPECT_EQ(gateway.last_seq_received(1), 7u);
  // The dropped duplicates are not counted: hello, 7 staged frames, bye.
  const IngestMetrics& m = gateway.metrics();
  EXPECT_EQ(m.frames_decoded(), 9);
  EXPECT_EQ(m.streams().at(1).frames, 7);
  EXPECT_EQ(m.streams().at(1).data_events, 7);
  EXPECT_EQ(m.streams().at(1).bytes, 7 * kDataFrameBytes);
  // Staged elements are the dedup'd contiguous stream, in order.
  for (int i = 0; i < 7; ++i) {
    const Event e = gateway.Pop(1);
    ASSERT_TRUE(e.is_data());
    EXPECT_EQ(e.event_time, i);
  }
  EXPECT_EQ(gateway.delivered_seq(1), 7u);
  server.Stop();
}

TEST(IngestLoopbackTest, IdleConnectionTimedOut) {
  IngestGateway gateway;
  gateway.RegisterStream(1, IngestStreamConfig{});
  IngestServerConfig config;
  config.idle_timeout_ms = 30;
  IngestServer server(config, &gateway);
  ASSERT_TRUE(server.Start().ok());

  const int fd = MustConnect(server.port());
  std::vector<uint8_t> bytes;
  EncodeHello(1, &bytes);
  SendBytes(fd, bytes);

  EXPECT_EQ(DrainUntilClosed(server, fd),
            static_cast<uint16_t>(WireError::kIdleTimeout));
  EXPECT_EQ(gateway.metrics().idle_timeouts(), 1);
  server.Stop();
}

// NetworkFeed hands a stream's due elements over in runs. What it delivers
// must be the per-element merge of the EventFeed contract: the oldest due
// front first, ties to the lowest stream, at least one element, then none
// past the byte budget.
TEST(NetworkFeedTest, RunMergeMatchesOneElementAtATime) {
  constexpr int kStreams = 3;
  IngestGateway gateway;
  const std::vector<uint32_t> ids = {4, 9, 17};
  for (const uint32_t id : ids) {
    gateway.RegisterStream(id, IngestStreamConfig{});
  }
  NetworkFeed feed(&gateway, ids);
  // The reference holds what each stream staged and merges it one element
  // at a time. The key is the element's sequence number on its stream.
  std::vector<std::deque<Event>> staged(kStreams);
  std::vector<uint64_t> next_seq(kStreams, 1);
  Rng rng(7);
  const auto reference_poll = [&](TimeMicros now, int64_t max_bytes) {
    std::vector<EventFeed::FeedElement> out;
    int64_t delivered = 0;
    while (true) {
      int best = -1;
      for (int s = 0; s < kStreams; ++s) {
        const std::deque<Event>& q = staged[static_cast<size_t>(s)];
        if (q.empty() || q.front().ingest_time > now) continue;
        if (best < 0 || q.front().ingest_time <
                            staged[static_cast<size_t>(best)]
                                .front()
                                .ingest_time) {
          best = s;
        }
      }
      if (best < 0) break;
      std::deque<Event>& q = staged[static_cast<size_t>(best)];
      const int64_t sz =
          q.front().payload_bytes + StreamQueue::kPerEventOverhead;
      if (delivered > 0 && delivered + sz > max_bytes) break;
      delivered += sz;
      out.push_back(EventFeed::FeedElement{best, q.front()});
      q.pop_front();
    }
    return out;
  };
  int64_t total = 0;
  for (TimeMicros horizon = 10; horizon <= 600; horizon += 10) {
    for (size_t s = 0; s < ids.size(); ++s) {
      IngestGateway::Stream& stream = gateway.GetStream(ids[s]);
      const int64_t n = rng.NextInt(0, 40);
      for (int64_t i = 0; i < n; ++i) {
        // Few distinct times, so fronts tie often; nor are a stream's
        // times sorted, which the merge must not assume.
        const TimeMicros t = horizon - rng.NextInt(0, 9);
        const Event e =
            MakeDataEvent(t, t, next_seq[s], 1.0,
                          static_cast<uint32_t>(rng.NextInt(1, 200)));
        ASSERT_EQ(stream.AcceptSeq(next_seq[s]++),
                  IngestGateway::SeqDecision::kAccept);
        stream.Deliver(e, kDataFrameBytes);
        staged[s].push_back(e);
      }
      gateway.Flush(ids[s]);
    }
    for (int poll = 0; poll < 3; ++poll) {
      const TimeMicros now = horizon - rng.NextInt(0, 12);
      const int64_t max_bytes = rng.NextInt(0, 3000);
      std::vector<EventFeed::FeedElement> got;
      feed.PollUpTo(now, max_bytes, &got);
      const std::vector<EventFeed::FeedElement> want =
          reference_poll(now, max_bytes);
      ASSERT_EQ(got.size(), want.size()) << "now " << now;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].source_index, want[i].source_index);
        EXPECT_EQ(got[i].event.key, want[i].event.key);
        EXPECT_EQ(got[i].event.ingest_time, want[i].event.ingest_time);
      }
      total += static_cast<int64_t>(got.size());
    }
  }
  EXPECT_GT(total, 1000);
  // The replay cursor counts what each stream handed over.
  for (size_t s = 0; s < ids.size(); ++s) {
    EXPECT_EQ(gateway.delivered_seq(ids[s]),
              next_seq[s] - 1 - staged[s].size());
    EXPECT_EQ(gateway.staged_events(ids[s]),
              static_cast<int64_t>(staged[s].size()));
  }
}

}  // namespace
}  // namespace klink
