#ifndef KLINK_NET_INGEST_GATEWAY_H_
#define KLINK_NET_INGEST_GATEWAY_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/event/event.h"
#include "src/event/stream_queue.h"
#include "src/runtime/event_feed.h"
#include "src/runtime/metrics.h"

namespace klink {

/// Streams per query in the default stream-id numbering: connection stream
/// id = query_index * kStreamsPerQuery + source_index. A convention shared
/// by klink_run --listen and the loadgen tool, not a protocol constant —
/// any registration scheme works at the gateway level.
inline constexpr uint32_t kStreamsPerQuery = 8;

inline constexpr uint32_t MakeStreamId(int query_index, int source_index) {
  return static_cast<uint32_t>(query_index) * kStreamsPerQuery +
         static_cast<uint32_t>(source_index);
}

/// Buffering policy of one registered ingest stream.
struct IngestStreamConfig {
  /// Credit budget: once the staging queue holds this many (simulated)
  /// bytes, the connection feeding the stream stops being read. Reading
  /// resumes once the staging queue drains below half of it (hysteresis,
  /// like the engine's memory-tracker backpressure).
  int64_t byte_budget = 4ll << 20;
};

/// Bridges decoded wire frames into the engine: one staging StreamQueue
/// ring buffer per registered stream, filled by the IngestServer's decode
/// path via PushBatch and drained by a NetworkFeed on the engine side.
///
/// Credit-based backpressure (DESIGN.md "Network ingest"): the server asks
/// Stream::HasCredit() before staging each element frame; when the staging
/// queue is over budget the connection is paused — its socket is no longer
/// polled for reads, so TCP flow control pushes back to the client — and
/// resumes via TryResume() once the engine drains the queue below the
/// resume threshold. A slow query therefore bounds its ingest memory at
/// byte_budget instead of OOMing the engine.
///
/// Per-frame work makes no lookup: the server resolves a connection's
/// Stream once per socket read and NetworkFeed its streams once at
/// construction; the per-stream calls below by id are for once-per-read
/// and control paths.
///
/// Single-threaded by design: the server poll loop and the engine cycle
/// loop run on the same thread (sockets, not threads, provide asynchrony).
class IngestGateway {
 public:
  IngestGateway();

  IngestGateway(const IngestGateway&) = delete;
  IngestGateway& operator=(const IngestGateway&) = delete;

  /// Verdict on an element frame's per-stream sequence number.
  enum class SeqDecision {
    kAccept,     ///< next expected: stage it
    kDuplicate,  ///< already received (client replay overlap): drop silently
    kGap,        ///< skipped ahead: protocol violation, fail the connection
  };

  /// One registered stream: its staging queue, the scratch run the decode
  /// path fills, and its exactly-once cursors. An entry keeps its address
  /// for the gateway's lifetime, also while other streams register (the
  /// dynamic-attach hook registers one in the middle of a decode), so a
  /// caller may hold it across frames and reads.
  class Stream {
   public:
    /// ---- decode path (IngestServer, per element frame) ---------------
    /// True while the staged + scratch bytes are under budget.
    bool HasCredit() const {
      return staged_.bytes() + scratch_bytes_ < config_.byte_budget;
    }
    /// Admits or rejects an element frame by its sequence number. Seqs are
    /// client-assigned, contiguous from 1 per stream; after a reconnect the
    /// client replays its unacked tail, so overlaps are expected (dropped
    /// as duplicates) while gaps can only mean a broken client.
    SeqDecision AcceptSeq(uint64_t seq) {
      if (seq == last_seq_received_ + 1) {
        last_seq_received_ = seq;
        return SeqDecision::kAccept;
      }
      if (seq <= last_seq_received_) {
        ++duplicates_;
        return SeqDecision::kDuplicate;
      }
      return SeqDecision::kGap;
    }
    /// Stages one decoded element, `wire_bytes` long on the wire, into the
    /// scratch run. IngestGateway::Flush commits the run and adds its
    /// frames to the metrics.
    void Deliver(const Event& e, int64_t wire_bytes) {
      scratch_.push_back(e);
      scratch_bytes_ += e.payload_bytes + StreamQueue::kPerEventOverhead;
      scratch_wire_bytes_ += wire_bytes;
      scratch_data_events_ += e.is_data() ? 1 : 0;
    }

    /// ---- drain path (NetworkFeed, on the engine thread) --------------
    /// Ingest time of the oldest staged element, or kNoTime when empty.
    TimeMicros OldestIngestTime() const { return staged_.OldestIngestTime(); }
    /// Hands staged elements to the engine from the front while `take`
    /// accepts them (StreamQueue::PopWhile), advancing delivered_seq.
    template <typename Take>
    void PopWhile(Take&& take) {
      // Seqs are contiguous and every accepted element passes through the
      // staging queue exactly once, so the delivered cursor is a count.
      delivered_seq_ +=
          static_cast<uint64_t>(staged_.PopWhile(std::forward<Take>(take)));
      Audit();
    }

   private:
    friend class IngestGateway;

    /// KLINK_AUDIT=1: cross-checks the staging accounting (ring buffer
    /// bytes vs full recompute, scratch-run bytes) at commit and drain
    /// boundaries. No-op when auditing is off.
    void Audit() const;

    IngestStreamConfig config_;
    bool audit_ = false;  // KLINK_AUDIT, sampled by the gateway
    StreamQueue staged_;
    std::vector<Event> scratch_;  // decoded, not yet committed
    int64_t scratch_bytes_ = 0;   // staging cost of scratch_
    int64_t scratch_wire_bytes_ = 0;
    int64_t scratch_data_events_ = 0;
    TimeMicros staged_through_ = 0;
    bool stalled_ = false;
    int64_t stall_start_micros_ = 0;  // wall clock
    bool ended_ = false;
    bool greeted_ = false;  // some connection said hello
    int connections_ = 0;   // live connections bound to the stream
    uint64_t last_seq_received_ = 0;  // highest accepted (0 = none yet)
    uint64_t delivered_seq_ = 0;      // last seq popped by the engine
    int64_t duplicates_ = 0;          // replayed frames dropped by dedup
  };

  /// Registers a stream before serving. Stream ids are dense small
  /// integers by convention (MakeStreamId) but any uint32 works.
  void RegisterStream(uint32_t stream_id, const IngestStreamConfig& config);
  bool HasStream(uint32_t stream_id) const;
  /// The registered stream `stream_id` (checked).
  Stream& GetStream(uint32_t stream_id);
  const Stream& GetStream(uint32_t stream_id) const;

  /// ---- decode path (called by IngestServer, once per read) -----------
  /// Commits the scratch run into the staging ring buffer with one
  /// PushBatch, adds its frames to the metrics, and advances the stream's
  /// arrival watermark.
  void Flush(uint32_t stream_id);
  /// Records that the stream's connection was paused for lack of credit.
  void NoteStall(uint32_t stream_id);
  /// True (ending the stall-time interval) once the staging queue has
  /// drained below the resume threshold, so the server may read again.
  bool TryResume(uint32_t stream_id);
  /// Graceful end-of-stream: kBye received.
  void MarkEndOfStream(uint32_t stream_id);
  /// A hello bound a connection to the stream (`open`), or that
  /// connection closed, after kBye or abruptly.
  void NoteConnection(uint32_t stream_id, bool open);

  /// ---- inspection (tools and tests) ----------------------------------
  /// Ingest time of the oldest staged element, or kNoTime when empty.
  TimeMicros PeekIngestTime(uint32_t stream_id) const;
  /// Removes the oldest staged element, as NetworkFeed would deliver it.
  Event Pop(uint32_t stream_id);

  int64_t staged_bytes(uint32_t stream_id) const;
  int64_t staged_events(uint32_t stream_id) const;
  /// Largest staged_bytes ever observed (backpressure bound checks).
  int64_t peak_staged_bytes(uint32_t stream_id) const;
  bool end_of_stream(uint32_t stream_id) const;
  /// Data events decoded for the stream so far.
  int64_t data_events(uint32_t stream_id) const;

  /// ---- exactly-once bookkeeping --------------------------------------
  /// Highest sequence number accepted from the stream's connection.
  uint64_t last_seq_received(uint32_t stream_id) const;
  /// Sequence number of the last element handed to the engine.
  /// Sampled by the checkpoint coordinator at barrier injection: it is the
  /// stream's replay cursor (everything <= it is pre-barrier).
  uint64_t delivered_seq(uint32_t stream_id) const;
  /// Replayed frames dropped by dedup so far.
  int64_t duplicate_events(uint32_t stream_id) const;
  /// Recovery: rewinds the stream's cursors to a restored checkpoint's
  /// cursor. The next acceptable frame is seq + 1; the reconnecting client
  /// learns this via HELLO_ACK and replays from there.
  void RestoreCursor(uint32_t stream_id, uint64_t seq);

  /// Arrival progress: every element with ingest_time <= StagedThrough()
  /// has been staged (clients send in ingestion order, so the last staged
  /// ingest_time is a watermark over the TCP stream). INT64_MAX once the
  /// stream ended.
  TimeMicros StagedThrough(uint32_t stream_id) const;

  /// ---- arrival progress over every registered stream -----------------
  /// The minimum StagedThrough, or kNoTime while no stream is registered.
  /// A stream that never connected, or has not reconnected since a
  /// restore, has staged nothing and holds it at 0.
  TimeMicros MinStagedThrough() const;
  /// True once streams are registered and each has said kBye or lost its
  /// connection after its hello (a client that died; its StagedThrough
  /// stays finite). A stream that never connected has not finished.
  bool AllStreamsFinished() const;
  /// Events staged on every stream and not yet drained.
  int64_t TotalStagedEvents() const;

  IngestMetrics& metrics() { return metrics_; }
  const IngestMetrics& metrics() const { return metrics_; }

 private:
  /// std::map: entries never move, which Stream's contract relies on.
  std::map<uint32_t, Stream> streams_;
  IngestMetrics metrics_;
  /// Sampled from KLINK_AUDIT once at construction (see runtime/audit.h).
  const bool audit_;
};

/// EventFeed over gateway streams: the engine ingests network arrivals
/// through the exact interface the synthetic in-process feeds use, so
/// scheduling, backpressure, and memory accounting are oblivious to where
/// events come from. Elements are delivered in ingestion order (merged
/// across the feed's streams), gated on ingest_time <= now — an element
/// that arrived early waits; one that arrives late (real network delay)
/// is picked up by the next cycle, which is precisely the asynchrony
/// Klink's slack computation runs against.
class NetworkFeed final : public EventFeed {
 public:
  /// `stream_ids[i]` feeds the query's source operator i.
  NetworkFeed(IngestGateway* gateway, std::vector<uint32_t> stream_ids);

  void PollUpTo(TimeMicros now, int64_t max_bytes,
                std::vector<FeedElement>* out) override;
  int64_t generated_events() const override;

 private:
  IngestGateway* gateway_;
  std::vector<uint32_t> stream_ids_;
  /// stream_ids_ resolved at construction: the drain makes no lookup.
  std::vector<IngestGateway::Stream*> streams_;
};

}  // namespace klink

#endif  // KLINK_NET_INGEST_GATEWAY_H_
