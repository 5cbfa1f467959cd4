#include "src/event/stream_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "src/common/rng.h"

namespace klink {
namespace {

TEST(StreamQueueTest, FifoOrder) {
  StreamQueue q;
  q.Push(MakeDataEvent(1, 10, 1, 1.0));
  q.Push(MakeDataEvent(2, 20, 2, 2.0));
  q.Push(MakeDataEvent(3, 30, 3, 3.0));
  EXPECT_EQ(q.Pop().key, 1u);
  EXPECT_EQ(q.Pop().key, 2u);
  EXPECT_EQ(q.Pop().key, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(StreamQueueTest, ByteAccounting) {
  StreamQueue q;
  Event e = MakeDataEvent(0, 0, 0, 0.0, /*payload_bytes=*/100);
  q.Push(e);
  EXPECT_EQ(q.bytes(), 100 + StreamQueue::kPerEventOverhead);
  q.Push(e);
  EXPECT_EQ(q.bytes(), 2 * (100 + StreamQueue::kPerEventOverhead));
  q.Pop();
  EXPECT_EQ(q.bytes(), 100 + StreamQueue::kPerEventOverhead);
  q.Pop();
  EXPECT_EQ(q.bytes(), 0);
}

TEST(StreamQueueTest, DataCountExcludesPunctuation) {
  StreamQueue q;
  q.Push(MakeDataEvent(0, 0, 0, 0.0));
  q.Push(MakeWatermark(5, 6));
  q.Push(MakeLatencyMarker(7, 8));
  EXPECT_EQ(q.size(), 3);
  EXPECT_EQ(q.data_count(), 1);
  q.Pop();
  EXPECT_EQ(q.data_count(), 0);
}

TEST(StreamQueueTest, OldestIngestTime) {
  StreamQueue q;
  EXPECT_EQ(q.OldestIngestTime(), kNoTime);
  q.Push(MakeDataEvent(1, 17, 0, 0.0));
  q.Push(MakeDataEvent(2, 99, 0, 0.0));
  EXPECT_EQ(q.OldestIngestTime(), 17);
  q.Pop();
  EXPECT_EQ(q.OldestIngestTime(), 99);
}

TEST(StreamQueueTest, FrontPeeksWithoutRemoving) {
  StreamQueue q;
  q.Push(MakeDataEvent(1, 10, 42, 0.0));
  EXPECT_EQ(q.Front().key, 42u);
  EXPECT_EQ(q.size(), 1);
}

TEST(StreamQueueTest, ClearResetsEverything) {
  StreamQueue q;
  q.Push(MakeDataEvent(0, 0, 0, 0.0));
  q.Push(MakeWatermark(1, 2));
  q.Clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0);
  EXPECT_EQ(q.data_count(), 0);
  EXPECT_EQ(q.OldestIngestTime(), kNoTime);
}

TEST(StreamQueueTest, WraparoundAcrossChunkBoundaries) {
  // Interleave pushes and pops so the head and tail cross chunk boundaries
  // many times and drained chunks are recycled; FIFO order and accounting
  // must survive the wraparound.
  StreamQueue q;
  const int64_t kSpan = 3 * StreamQueue::kChunkEvents + 17;
  uint64_t next_push = 0;
  uint64_t next_pop = 0;
  for (int round = 0; round < 5; ++round) {
    for (int64_t i = 0; i < kSpan; ++i) {
      q.Push(MakeDataEvent(static_cast<TimeMicros>(next_push),
                           static_cast<TimeMicros>(next_push), next_push, 1.0));
      ++next_push;
    }
    for (int64_t i = 0; i < kSpan; ++i) {
      ASSERT_EQ(q.Pop().key, next_pop);
      ++next_pop;
    }
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0);
}

TEST(StreamQueueTest, GrowWhileWrappedPreservesOrder) {
  // Force a capacity grow while the ring's head sits mid-buffer: fill past
  // one chunk, drain past the first chunk boundary, then push far beyond
  // the current capacity.
  StreamQueue q;
  uint64_t key = 0;
  for (int64_t i = 0; i < StreamQueue::kChunkEvents + 10; ++i) {
    q.Push(MakeDataEvent(0, 0, key++, 0.0));
  }
  uint64_t expect = 0;
  for (int64_t i = 0; i < StreamQueue::kChunkEvents + 5; ++i) {
    ASSERT_EQ(q.Pop().key, expect++);
  }
  for (int64_t i = 0; i < 4 * StreamQueue::kChunkEvents; ++i) {
    q.Push(MakeDataEvent(0, 0, key++, 0.0));
  }
  while (!q.empty()) {
    ASSERT_EQ(q.Pop().key, expect++);
  }
  EXPECT_EQ(expect, key);
}

TEST(StreamQueueTest, PushBatchMatchesScalarPushes) {
  std::vector<Event> events;
  for (int i = 0; i < 700; ++i) {
    events.push_back(i % 7 == 0
                         ? MakeWatermark(i, i + 1)
                         : MakeDataEvent(i, i + 1, static_cast<uint64_t>(i),
                                         1.0, /*payload_bytes=*/32 + i % 64));
  }
  StreamQueue scalar;
  StreamQueue batched;
  for (const Event& e : events) scalar.Push(e);
  batched.PushBatch(events.data(), static_cast<int64_t>(events.size()));
  ASSERT_EQ(batched.size(), scalar.size());
  EXPECT_EQ(batched.bytes(), scalar.bytes());
  EXPECT_EQ(batched.data_count(), scalar.data_count());
  while (!scalar.empty()) {
    const Event a = scalar.Pop();
    const Event b = batched.Pop();
    ASSERT_EQ(a.kind, b.kind);
    ASSERT_EQ(a.key, b.key);
    ASSERT_EQ(a.event_time, b.event_time);
  }
}

TEST(StreamQueueTest, PopBatchPartialFill) {
  StreamQueue q;
  for (int i = 0; i < 10; ++i) {
    q.Push(MakeDataEvent(i, i, static_cast<uint64_t>(i), 0.0));
  }
  std::vector<Event> out(64);
  // Asking for more than available returns exactly what is queued.
  EXPECT_EQ(q.PopBatch(out.data(), 64), 10);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[static_cast<size_t>(i)].key,
                                         static_cast<uint64_t>(i));
  // Popping from an empty queue is a no-op returning zero.
  EXPECT_EQ(q.PopBatch(out.data(), 64), 0);
}

TEST(StreamQueueTest, PopBatchSpansChunkBoundary) {
  StreamQueue q;
  const int64_t n = StreamQueue::kChunkEvents + 50;
  for (int64_t i = 0; i < n; ++i) {
    q.Push(MakeDataEvent(i, i, static_cast<uint64_t>(i), 0.0));
  }
  std::vector<Event> out(static_cast<size_t>(n));
  EXPECT_EQ(q.PopBatch(out.data(), n), n);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)].key, static_cast<uint64_t>(i));
  }
}

TEST(StreamQueueTest, InterleavedOpsKeepInvariants) {
  // Randomized interleaving of Push/PushBatch/Pop/PopBatch/Clear checked
  // against a reference deque; byte and data-count invariants must hold
  // after every operation.
  Rng rng(2024);
  StreamQueue q;
  std::deque<Event> ref;
  std::vector<Event> scratch(256);
  auto check = [&] {
    ASSERT_EQ(q.size(), static_cast<int64_t>(ref.size()));
    int64_t bytes = 0;
    int64_t data = 0;
    for (const Event& e : ref) {
      bytes += e.payload_bytes + StreamQueue::kPerEventOverhead;
      data += e.is_data() ? 1 : 0;
    }
    ASSERT_EQ(q.bytes(), bytes);
    ASSERT_EQ(q.data_count(), data);
    ASSERT_EQ(q.OldestIngestTime(),
              ref.empty() ? kNoTime : ref.front().ingest_time);
  };
  for (int step = 0; step < 4000; ++step) {
    const int64_t action = rng.NextInt(0, 9);
    if (action <= 2) {
      const Event e = MakeDataEvent(step, step + 1,
                                    rng.NextUint64() % 1000, 1.0,
                                    static_cast<uint32_t>(rng.NextInt(16, 256)));
      q.Push(e);
      ref.push_back(e);
    } else if (action <= 4) {
      const int64_t n = rng.NextInt(1, 200);
      scratch.clear();
      for (int64_t i = 0; i < n; ++i) {
        scratch.push_back(i % 5 == 0 ? MakeWatermark(step, step)
                                     : MakeDataEvent(step, step, 7, 1.0));
      }
      q.PushBatch(scratch.data(), n);
      ref.insert(ref.end(), scratch.begin(), scratch.end());
    } else if (action <= 6) {
      if (!ref.empty()) {
        const Event got = q.Pop();
        ASSERT_EQ(got.key, ref.front().key);
        ASSERT_EQ(got.kind, ref.front().kind);
        ref.pop_front();
      }
    } else if (action <= 8) {
      const int64_t want = rng.NextInt(1, 150);
      scratch.resize(static_cast<size_t>(want));
      const int64_t got = q.PopBatch(scratch.data(), want);
      ASSERT_EQ(got, std::min<int64_t>(want, static_cast<int64_t>(ref.size())));
      for (int64_t i = 0; i < got; ++i) {
        ASSERT_EQ(scratch[static_cast<size_t>(i)].key, ref.front().key);
        ref.pop_front();
      }
    } else if (rng.NextInt(0, 19) == 0) {
      q.Clear();
      ref.clear();
    }
    check();
  }
}

TEST(StreamQueueTest, CachedFrontIngestTimeFollowsEveryFrontChange) {
  // OldestIngestTime() is a field written wherever the front changes.
  // Every element carries a distinct ingest time, so a path that moves the
  // front without updating the field reads a stale value here.
  constexpr int64_t kChunk = StreamQueue::kChunkEvents;
  StreamQueue q;
  std::deque<TimeMicros> ref;  // ingest times in queue order
  TimeMicros next = 1000;
  const auto next_event = [&] {
    const TimeMicros t = next++;
    ref.push_back(t);
    return MakeDataEvent(t - 500, t, static_cast<uint64_t>(t), 1.0);
  };
  const auto push_batch = [&](int64_t n) {
    std::vector<Event> batch;
    for (int64_t i = 0; i < n; ++i) batch.push_back(next_event());
    q.PushBatch(batch.data(), n);
  };
  std::vector<Event> out(static_cast<size_t>(4 * kChunk));
  const auto pop_batch = [&](int64_t n) {
    ASSERT_EQ(q.PopBatch(out.data(), n), n);
    ref.erase(ref.begin(), ref.begin() + n);
  };
  const auto expect_front = [&](const char* step) {
    const TimeMicros want = ref.empty() ? kNoTime : ref.front();
    EXPECT_EQ(q.OldestIngestTime(), want) << step;
    EXPECT_EQ(q.AuditRecomputeOldestIngestTime(), want) << step;
  };

  expect_front("empty");
  q.Push(next_event());
  expect_front("Push into an empty queue");
  q.Push(next_event());
  expect_front("Push behind the front");
  q.Pop();
  ref.pop_front();
  expect_front("Pop");
  q.Pop();
  ref.pop_front();
  expect_front("Pop to empty");

  push_batch(kChunk + 40);
  expect_front("PushBatch into an empty queue");
  push_batch(3);
  expect_front("PushBatch behind the front");
  pop_batch(kChunk - 10);
  expect_front("PopBatch within the front chunk");
  pop_batch(30);  // 10 from the front chunk, 20 from the next one
  expect_front("PopBatch across a chunk boundary");

  // The front now sits in the second of two chunks and the first is
  // spare: filling both makes the ring wrap, and one more element makes
  // it grow while the head is wrapped.
  push_batch(2 * kChunk);
  expect_front("PushBatch that wraps and grows");
  for (int i = 0; i < kChunk; ++i) q.Push(next_event());
  expect_front("Push that grows again");
  while (!ref.empty()) {
    pop_batch(std::min<int64_t>(static_cast<int64_t>(ref.size()), 97));
    expect_front("PopBatch draining across chunks");
  }

  push_batch(5);
  q.Clear();
  ref.clear();
  expect_front("Clear");
  q.Push(next_event());
  expect_front("Push after Clear");
}

TEST(EventTest, NetworkDelay) {
  const Event e = MakeDataEvent(/*event_time=*/100, /*ingest_time=*/175, 0, 0.0);
  EXPECT_EQ(e.network_delay(), 75);
}

TEST(EventTest, KindPredicates) {
  EXPECT_TRUE(MakeDataEvent(0, 0, 0, 0.0).is_data());
  EXPECT_TRUE(MakeWatermark(0, 0).is_watermark());
  EXPECT_TRUE(MakeLatencyMarker(0, 0).is_latency_marker());
  EXPECT_FALSE(MakeWatermark(0, 0).is_data());
}

}  // namespace
}  // namespace klink
