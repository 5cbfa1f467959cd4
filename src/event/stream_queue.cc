#include "src/event/stream_queue.h"

#include <algorithm>

#include "src/common/check.h"

namespace klink {

void StreamQueue::Grow() {
  // Linearize the circular chunk order so the fresh chunk lands at the
  // logical tail, then append it. O(chunk count) pointer moves, amortized
  // over kChunkEvents pushes per chunk.
  std::rotate(chunks_.begin(),
              chunks_.begin() + static_cast<ptrdiff_t>(chunk_head_),
              chunks_.end());
  chunk_head_ = 0;
  chunks_.push_back(std::make_unique<Chunk>());
}

void StreamQueue::RecycleFrontChunk() {
  // The drained chunk stays in chunks_; advancing chunk_head_ moves it into
  // the spare region between the in-use tail and the (new) head.
  chunk_head_ = (chunk_head_ + 1) % chunks_.size();
  head_ = 0;
}

void StreamQueue::Push(const Event& e) {
  const int64_t tail = head_ + size_;
  if (tail == static_cast<int64_t>(chunks_.size()) * kChunkEvents) Grow();
  chunks_[ChunkIndexFor(tail)]->events[tail & (kChunkEvents - 1)] = e;
  if (size_ == 0) front_ingest_ = e.ingest_time;
  ++size_;
  const int64_t delta = e.payload_bytes + kPerEventOverhead;
  bytes_ += delta;
  if (e.is_keyed_element()) ++data_count_;
}

void StreamQueue::PushBatch(const Event* events, int64_t n) {
  KLINK_CHECK_GE(n, 0);
  if (size_ == 0 && n > 0) front_ingest_ = events[0].ingest_time;
  int64_t delta = 0;
  int64_t data = 0;
  int64_t i = 0;
  while (i < n) {
    const int64_t tail = head_ + size_;
    if (tail == static_cast<int64_t>(chunks_.size()) * kChunkEvents) Grow();
    const int64_t offset = tail & (kChunkEvents - 1);
    const int64_t room = kChunkEvents - offset;
    const int64_t run = std::min(n - i, room);
    Event* dst = &chunks_[ChunkIndexFor(tail)]->events[offset];
    for (int64_t k = 0; k < run; ++k) {
      const Event& e = events[i + k];
      dst[k] = e;
      delta += e.payload_bytes + kPerEventOverhead;
      data += e.is_keyed_element() ? 1 : 0;
    }
    size_ += run;
    i += run;
  }
  bytes_ += delta;
  data_count_ += data;
}

Event StreamQueue::Pop() {
  KLINK_CHECK(size_ > 0);
  Event e = chunks_[chunk_head_]->events[head_];
  ++head_;
  --size_;
  if (head_ == kChunkEvents) RecycleFrontChunk();
  ReloadFrontIngest();
  const int64_t delta = e.payload_bytes + kPerEventOverhead;
  bytes_ -= delta;
  if (e.is_keyed_element()) --data_count_;
  KLINK_DCHECK(bytes_ >= 0);
  return e;
}

int64_t StreamQueue::PopBatch(Event* out, int64_t max_n) {
  KLINK_CHECK_GE(max_n, 0);
  const int64_t n = std::min(max_n, size_);
  int64_t delta = 0;
  int64_t data = 0;
  int64_t remaining = n;
  while (remaining > 0) {
    const int64_t run = std::min(remaining, kChunkEvents - head_);
    const Event* src = &chunks_[chunk_head_]->events[head_];
    for (int64_t k = 0; k < run; ++k) {
      out[k] = src[k];
      delta += src[k].payload_bytes + kPerEventOverhead;
      data += src[k].is_keyed_element() ? 1 : 0;
    }
    out += run;
    head_ += run;
    remaining -= run;
    if (head_ == kChunkEvents) RecycleFrontChunk();
  }
  size_ -= n;
  bytes_ -= delta;
  data_count_ -= data;
  ReloadFrontIngest();
  KLINK_DCHECK(bytes_ >= 0);
  return n;
}

const Event& StreamQueue::Front() const {
  KLINK_CHECK(size_ > 0);
  return chunks_[chunk_head_]->events[head_];
}

int64_t StreamQueue::AuditRecomputeBytes() const {
  int64_t total = 0;
  for (int64_t g = head_; g < head_ + size_; ++g) {
    const Event& e = chunks_[ChunkIndexFor(g)]->events[g & (kChunkEvents - 1)];
    total += e.payload_bytes + kPerEventOverhead;
  }
  return total;
}

int64_t StreamQueue::AuditRecomputeDataCount() const {
  int64_t data = 0;
  for (int64_t g = head_; g < head_ + size_; ++g) {
    const Event& e = chunks_[ChunkIndexFor(g)]->events[g & (kChunkEvents - 1)];
    if (e.is_keyed_element()) ++data;
  }
  return data;
}

TimeMicros StreamQueue::AuditRecomputeOldestIngestTime() const {
  return size_ == 0 ? kNoTime : Front().ingest_time;
}

void StreamQueue::Clear() {
  chunk_head_ = 0;
  head_ = 0;
  size_ = 0;
  bytes_ = 0;
  data_count_ = 0;
  front_ingest_ = kNoTime;
}

}  // namespace klink
