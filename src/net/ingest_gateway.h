#ifndef KLINK_NET_INGEST_GATEWAY_H_
#define KLINK_NET_INGEST_GATEWAY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "src/common/thread_annotations.h"
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

/// A CHECKPOINT_ACK the engine thread owes a client (see QueueAck).
struct QueuedAck {
  uint32_t stream_id = 0;
  uint64_t epoch = 0;
  uint64_t durable_seq = 0;
};

/// Bridges decoded wire frames into the engine: one staging StreamQueue
/// ring buffer per registered stream, filled by the IngestServer's decode
/// path and drained by a NetworkFeed on the engine side.
///
/// Credit-based backpressure (DESIGN.md "Network ingest"): the server asks
/// Stream::HasCredit() before staging each element frame; when the staging
/// queue is over budget the connection is paused — its socket is no longer
/// polled for reads, so TCP flow control pushes back to the client — and
/// resumes via TryResume() once the engine drains the queue below the
/// resume threshold. A slow query therefore bounds its ingest memory at
/// byte_budget instead of OOMing the engine.
///
/// Threads: the decode path runs on the thread that polls the sockets
/// (ServeIngest's I/O thread), the drain path and the arrival reads on the
/// engine thread. What both touch — each stream's staging queue, arrival
/// watermark, delivered cursor and end-of-stream, connection and stall
/// flags, the metrics, the open-connection count, the ack queue and the
/// dynamic-attach hand-off — is guarded by one lock, taken once per socket
/// read (CommitRead) and once per query per cycle (NetworkFeed::PollUpTo),
/// never per frame. A Stream's scratch run and sequence cursor belong to
/// the decode path alone, so a frame is decoded and staged without it.
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

  /// The decode side of one registered stream: the scratch run the decode
  /// path fills, the credit it last saw, and the exactly-once sequence
  /// cursor. Only the thread that decodes touches it (and the registering
  /// thread, before serving). An entry keeps its address for the gateway's
  /// lifetime, also while other streams register (the dynamic-attach hook
  /// registers one in the middle of a decode), so a caller may hold it
  /// across frames and reads.
  class Stream {
   public:
    /// True while the staged bytes at the last commit plus the scratch
    /// run are under budget. The engine only drains in between, so the
    /// check errs on the side of pausing; the server commits and looks
    /// again before it pauses.
    bool HasCredit() const {
      return staged_bytes_seen_ + scratch_bytes_ < config_.byte_budget;
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
    /// scratch run. IngestGateway::CommitRead commits the run and adds its
    /// frames to the metrics.
    void Deliver(const Event& e, int64_t wire_bytes) {
      scratch_.push_back(e);
      scratch_bytes_ += e.payload_bytes + StreamQueue::kPerEventOverhead;
      scratch_wire_bytes_ += wire_bytes;
      scratch_data_events_ += e.is_data() ? 1 : 0;
    }

   private:
    friend class IngestGateway;

    IngestStreamConfig config_;
    size_t slot_ = 0;             // index of the stream's Staging
    std::vector<Event> scratch_;  // decoded, not yet committed
    int64_t scratch_bytes_ = 0;   // staging cost of scratch_
    int64_t scratch_wire_bytes_ = 0;
    int64_t scratch_data_events_ = 0;
    int64_t staged_bytes_seen_ = 0;   // staged bytes at the last commit
    uint64_t last_seq_received_ = 0;  // highest accepted (0 = none yet)
    int64_t duplicates_ = 0;          // replayed frames dropped by dedup
  };

  /// Registers a stream. Before serving, or on the engine thread while the
  /// I/O thread waits in RequestAttach. Stream ids are dense small
  /// integers by convention (MakeStreamId) but any uint32 works.
  void RegisterStream(uint32_t stream_id, const IngestStreamConfig& config);
  bool HasStream(uint32_t stream_id) const;
  /// The registered stream `stream_id` (checked).
  Stream& GetStream(uint32_t stream_id);
  const Stream& GetStream(uint32_t stream_id) const;

  /// ---- decode path (the polling thread) ------------------------------
  /// Commits one socket read under the lock: `stream`'s scratch run (none
  /// before a hello: `stream` may be null) goes into the staging ring
  /// buffer with one PushBatch, its frames, `bytes_read` and
  /// `control_frames` go into the metrics, and the stream's arrival
  /// watermark and credit snapshot advance. Wakes a waiting engine thread.
  void CommitRead(Stream* stream, int64_t bytes_read, int64_t control_frames);
  /// CommitRead of the stream's scratch run alone.
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
  /// Connection-level counters (see IngestMetrics).
  void NoteAccepted();
  void NoteClosed();
  void NoteIdleTimeout();
  void NoteMalformedFrame();
  /// Called with no lock held after an engine drain left a stalled stream
  /// below its resume threshold, so the polling thread reads it again
  /// (IngestServer wakes its poll). Set before serving.
  void SetResumeHook(std::function<void()> hook) {
    resume_hook_ = std::move(hook);
  }

  /// ---- checkpoint acks -----------------------------------------------
  /// Queues an ack (engine thread, via the checkpoint coordinator); the
  /// polling thread sends it with its next poll.
  void QueueAck(uint32_t stream_id, uint64_t epoch, uint64_t durable_seq);
  /// Moves every queued ack, in queue order, into `out` (cleared first).
  void TakeAcks(std::vector<QueuedAck>* out);

  /// ---- dynamic attach hand-off ---------------------------------------
  /// Polling thread: asks the engine thread to attach `stream_id` and
  /// waits for its answer (false once CloseAttach ran).
  bool RequestAttach(uint32_t stream_id);
  /// Engine thread: answers a pending request with `attach(stream_id)`,
  /// called with no lock held. No-op without a request.
  void AnswerAttach(const std::function<bool(uint32_t)>& attach);
  /// Engine thread: refuses every later request (and a pending one).
  void CloseAttach();

  /// ---- serve loop (engine thread) ------------------------------------
  /// Everything the serve loop decides on, read under one lock.
  struct Arrivals {
    /// MinStagedThrough(), or INT64_MAX once AllStreamsFinished().
    TimeMicros frontier = kNoTime;
    int64_t staged_events = 0;
    int connections = 0;
    bool attach_requested = false;
    /// Changes with every commit, goodbye, connection change and attach
    /// request (see AwaitChange).
    uint64_t version = 0;
  };
  Arrivals ReadArrivals() const;
  /// Waits until the version moves past `seen`, or for `timeout` at most.
  void AwaitChange(uint64_t seen, DurationMicros timeout) const;

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
  /// Connections accepted and not yet closed.
  int open_connections() const;

  /// ---- exactly-once bookkeeping --------------------------------------
  /// Highest sequence number accepted from the stream's connection (the
  /// decode path's cursor).
  uint64_t last_seq_received(uint32_t stream_id) const;
  /// Sequence number of the last element handed to the engine.
  /// Sampled by the checkpoint coordinator at barrier injection: it is the
  /// stream's replay cursor (everything <= it is pre-barrier).
  uint64_t delivered_seq(uint32_t stream_id) const;
  /// Replayed frames dropped by dedup so far.
  int64_t duplicate_events(uint32_t stream_id) const;
  /// Recovery: rewinds the stream's cursors to a restored checkpoint's
  /// cursor, before serving. The next acceptable frame is seq + 1; the
  /// reconnecting client learns this via HELLO_ACK and replays from there.
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

  /// A copy of the counters, taken under the lock.
  IngestMetrics metrics() const;

 private:
  friend class NetworkFeed;

  /// The staging side of one stream: what the decode path commits and
  /// the engine drains.
  struct Staging {
    uint32_t id = 0;
    int64_t byte_budget = 0;
    StreamQueue queue;
    TimeMicros staged_through = 0;
    uint64_t delivered_seq = 0;  // last seq popped by the engine
    bool stalled = false;
    int64_t stall_start_micros = 0;  // wall clock
    bool resume_signaled = false;  // resume hook fired for this stall
    bool ended = false;
    bool greeted = false;  // some connection said hello
    int connections = 0;   // live connections bound to the stream
  };
  /// Staged bytes under which a paused connection reads again.
  static int64_t ResumeBelow(const Staging& st);

  /// MinStagedThrough and AllStreamsFinished over `staging` (the caller
  /// holds the lock).
  static TimeMicros MinStagedThroughOf(const std::deque<Staging>& staging);
  static bool AllFinished(const std::deque<Staging>& staging);
  /// KLINK_AUDIT=1: cross-checks a staging queue's accounting (ring
  /// buffer bytes and data count vs a full recompute) at commit and drain
  /// boundaries, under the lock. No-op when auditing is off.
  void Audit(const Staging& st) const;
  size_t SlotOf(uint32_t stream_id) const { return GetStream(stream_id).slot_; }
  /// The merge behind NetworkFeed::PollUpTo over the staging slots
  /// `slots` (source i reads slots[i]).
  void PollStreams(const std::vector<size_t>& slots, TimeMicros now,
                   int64_t max_bytes, std::vector<EventFeed::FeedElement>* out);

  /// std::map: entries never move, which Stream's contract relies on.
  /// Written only before serving or while the polling thread waits in
  /// RequestAttach.
  std::map<uint32_t, Stream> streams_;
  std::function<void()> resume_hook_;  // set before serving
  /// Sampled from KLINK_AUDIT once at construction (see runtime/audit.h).
  const bool audit_;

  mutable Mutex mu_{"gateway.mu"};
  /// Signalled, after unlocking, on every version change and attach
  /// answer.
  mutable CondVar changed_cv_;
  /// One entry per registered stream, in registration order (deque:
  /// entries never move).
  std::deque<Staging> staging_ KLINK_GUARDED_BY(mu_);
  IngestMetrics metrics_ KLINK_GUARDED_BY(mu_);
  int open_connections_ KLINK_GUARDED_BY(mu_) = 0;
  uint64_t version_ KLINK_GUARDED_BY(mu_) = 0;
  std::vector<QueuedAck> acks_ KLINK_GUARDED_BY(mu_);
  /// The attach hand-off: the requested stream id (-1: none), the answer
  /// (-1: pending), and whether requests are refused.
  int64_t attach_request_ KLINK_GUARDED_BY(mu_) = -1;
  int attach_answer_ KLINK_GUARDED_BY(mu_) = -1;
  bool attach_closed_ KLINK_GUARDED_BY(mu_) = false;
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

  /// Takes the gateway lock once for the whole merge.
  void PollUpTo(TimeMicros now, int64_t max_bytes,
                std::vector<FeedElement>* out) override;
  int64_t generated_events() const override;

 private:
  IngestGateway* gateway_;
  std::vector<uint32_t> stream_ids_;
  /// stream_ids_ resolved at construction: the drain makes no lookup.
  std::vector<size_t> slots_;
};

}  // namespace klink

#endif  // KLINK_NET_INGEST_GATEWAY_H_
