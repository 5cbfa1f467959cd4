#ifndef KLINK_EVENT_STREAM_QUEUE_H_
#define KLINK_EVENT_STREAM_QUEUE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/event/event.h"

namespace klink {

/// FIFO input queue of an operator, with byte accounting for the memory
/// tracker. Events queue in arrival order; watermark/data ordering within
/// the queue is preserved, which enforces the SWM invariant that a window's
/// events are processed before the watermark that sweeps them (Sec. 2.2).
///
/// Storage is a chunked ring buffer: a circular list of fixed-size chunks
/// of `kChunkEvents` (a power of two, so in-chunk offsets reduce to a
/// mask). Chunks drained at the front are recycled to the back, so a
/// steady-state queue allocates nothing; growth only reallocates the small
/// chunk-pointer vector. Batch transfers (`PushBatch`/`PopBatch`) move
/// contiguous runs per chunk and fold the byte/data-count accounting into
/// one update per call instead of one per element — the queue half of the
/// batched hot path (DESIGN.md "Hot path").
class StreamQueue {
 public:
  /// Fixed simulated per-element bookkeeping overhead in bytes.
  static constexpr int64_t kPerEventOverhead = 32;

  /// Events per chunk. Power of two: offsets use `& (kChunkEvents - 1)`.
  static constexpr int64_t kChunkEvents = 256;

  StreamQueue() = default;

  StreamQueue(StreamQueue&&) = default;
  StreamQueue& operator=(StreamQueue&&) = default;
  StreamQueue(const StreamQueue&) = delete;
  StreamQueue& operator=(const StreamQueue&) = delete;

  /// Appends an element.
  void Push(const Event& e);

  /// Appends `n` elements in order with one accounting update.
  void PushBatch(const Event* events, int64_t n);

  /// Removes and returns the front element. Requires !empty().
  Event Pop();

  /// Removes up to `max_n` front elements into `out` (in queue order) with
  /// one accounting update. Returns the number of elements copied, which is
  /// min(max_n, size()).
  int64_t PopBatch(Event* out, int64_t max_n);

  /// Removes front elements in order while `take(e)` returns true, with
  /// one accounting update; `take` copies what it keeps, and the first
  /// element it refuses stays at the front. Returns the number removed.
  template <typename Take>
  int64_t PopWhile(Take&& take);

  /// Returns the front element without removing it. Requires !empty().
  const Event& Front() const;

  bool empty() const { return size_ == 0; }
  int64_t size() const { return size_; }

  /// Total simulated bytes held (payloads + fixed per-element overhead).
  int64_t bytes() const { return bytes_; }

  /// Ingestion time of the oldest queued element, or kNoTime when empty.
  /// Read by every cycle's snapshot (FCFS, lane oldest-ingest), so it is
  /// kept in a field written wherever the front changes instead of read
  /// from the front chunk.
  TimeMicros OldestIngestTime() const { return front_ingest_; }

  /// Number of queued data (non-punctuation) elements.
  int64_t data_count() const { return data_count_; }

  /// Drops everything. Chunks stay allocated for reuse.
  void Clear();

  /// Audit-mode support (KLINK_AUDIT=1, see runtime/audit.h): recomputes
  /// the byte total by walking every stored event, O(size). The invariant
  /// auditor compares this against the incremental bytes() counter to catch
  /// accounting drift in the batched push/pop paths.
  int64_t AuditRecomputeBytes() const;
  /// Same full walk for the data (non-punctuation) element count.
  int64_t AuditRecomputeDataCount() const;
  /// OldestIngestTime() read from the stored front element instead of the
  /// cached field.
  TimeMicros AuditRecomputeOldestIngestTime() const;

 private:
  /// Lets the audit test plant accounting corruption to prove the auditor
  /// detects it. Test-only; production code must go through Push/Pop.
  friend class StreamQueueTestPeer;
  struct Chunk {
    Event events[kChunkEvents];
  };

  /// Chunk-pointer index (into chunks_) holding global element offset `g`,
  /// where g counts from the start of the front chunk.
  size_t ChunkIndexFor(int64_t g) const {
    return (chunk_head_ + static_cast<size_t>(g / kChunkEvents)) %
           chunks_.size();
  }

  /// Makes room for at least one more element at the back.
  void Grow();

  /// Retires the (fully drained) front chunk back to the spare pool.
  void RecycleFrontChunk();

  /// Re-reads front_ingest_ after elements left the front.
  void ReloadFrontIngest() {
    front_ingest_ =
        size_ == 0 ? kNoTime : chunks_[chunk_head_]->events[head_].ingest_time;
  }

  /// Chunks in circular order starting at chunk_head_. Spare (drained)
  /// chunks live between the in-use tail and chunk_head_.
  std::vector<std::unique_ptr<Chunk>> chunks_;
  size_t chunk_head_ = 0;  // chunks_ index of the chunk holding the front
  int64_t head_ = 0;       // front offset within the front chunk
  int64_t size_ = 0;
  int64_t bytes_ = 0;
  int64_t data_count_ = 0;
  /// Ingest time of the front element, kNoTime when empty.
  TimeMicros front_ingest_ = kNoTime;
};

template <typename Take>
int64_t StreamQueue::PopWhile(Take&& take) {
  int64_t n = 0;
  int64_t delta = 0;
  int64_t data = 0;
  while (n < size_) {
    const Event& e = chunks_[chunk_head_]->events[head_];
    if (!take(e)) break;
    delta += e.payload_bytes + kPerEventOverhead;
    data += e.is_keyed_element() ? 1 : 0;
    ++n;
    if (++head_ == kChunkEvents) RecycleFrontChunk();
  }
  size_ -= n;
  bytes_ -= delta;
  data_count_ -= data;
  ReloadFrontIngest();
  return n;
}

}  // namespace klink

#endif  // KLINK_EVENT_STREAM_QUEUE_H_
