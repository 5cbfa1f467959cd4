#ifndef KLINK_NET_LOADGEN_H_
#define KLINK_NET_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/event/event.h"
#include "src/runtime/event_feed.h"

namespace klink {

struct LoadgenStats {
  int64_t data_events_sent = 0;
  int64_t frames_sent = 0;
  int64_t bytes_sent = 0;
  /// Successful re-dials after a lost connection.
  int64_t reconnects = 0;
  /// Retained frames re-sent after reconnects (replay overlap the server
  /// dedups by sequence number).
  int64_t replayed_frames = 0;
  /// Frames skipped because the server already had them (HELLO_ACK said
  /// the stream's next expected seq is past them).
  int64_t skipped_frames = 0;
};

/// Connect/reconnect retry knobs: exponential backoff with jitter, capped.
struct RetryPolicy {
  /// Re-dial attempts after the first failure; 0 = fail immediately
  /// (the seed behavior).
  int max_retries = 0;
  DurationMicros initial_backoff = MillisToMicros(50);
  DurationMicros max_backoff = SecondsToMicros(2);
};

/// One client connection of the loadgen: connects, sends the hello binding
/// the connection to an ingest stream, then streams element frames with
/// write buffering. The socket is blocking on purpose: when the server
/// exercises credit-based backpressure and stops reading, TCP flow control
/// blocks the sender right here — end-to-end backpressure from the
/// engine's staging queue to the workload generator.
///
/// Exactly-once ingest (protocol v2): every element frame carries a
/// client-assigned per-stream sequence number, contiguous from 1. Sent
/// elements are retained until the server's CHECKPOINT_ACK covers their
/// seq (the checkpoint holding them is durable); on reconnect the server's
/// HELLO_ACK says which seq it expects next and the client replays its
/// retained tail from there — duplicates are dropped server-side, so a
/// crash between acks loses nothing and double-delivers nothing.
class LoadgenConnection {
 public:
  LoadgenConnection() = default;
  ~LoadgenConnection();

  LoadgenConnection(const LoadgenConnection&) = delete;
  LoadgenConnection& operator=(const LoadgenConnection&) = delete;

  /// Connects (retrying per `retry`), sends the kHello frame for
  /// `stream_id`, and waits for the server's HELLO_ACK. When the server
  /// already holds a prefix of the stream (this client restarted after a
  /// crash and is regenerating the same feed), subsequent SendEvent calls
  /// skip the prefix instead of re-sending it.
  Status Connect(const std::string& host, uint16_t port, uint32_t stream_id,
                 const RetryPolicy& retry = RetryPolicy{});

  /// Stamps the next sequence number, retains the element for replay, and
  /// buffers its frame; flushes when the buffer is full.
  Status SendEvent(const Event& e);

  /// Sends any buffered frames and opportunistically drains server acks.
  Status Flush();

  /// Flushes and sends the graceful end-of-stream frame.
  Status SendBye();

  /// Re-dials after a lost connection (backoff per `retry`), renegotiates
  /// the resume point via HELLO_ACK, and re-sends retained unacked
  /// elements the server is missing. The failed connection's buffered
  /// frames are covered by the retained replay.
  Status Reconnect(const RetryPolicy& retry);

  /// Drains CHECKPOINT_ACK frames without blocking and trims the retained
  /// buffer up to the durable prefix.
  Status PollAcks();

  void Close();
  bool connected() const { return fd_ >= 0; }
  const LoadgenStats& stats() const { return stats_; }

  /// Newest durable checkpoint epoch the server has acked (0 = none).
  uint64_t durable_epoch() const { return durable_epoch_; }
  /// Largest sequence number covered by a durable checkpoint.
  uint64_t acked_seq() const { return acked_seq_; }
  /// Sequence number the next SendEvent will assign.
  uint64_t next_seq() const { return next_seq_; }

 private:
  static constexpr size_t kFlushThresholdBytes = 32 * 1024;

  /// Dials with exponential backoff + jitter; sends hello, reads HELLO_ACK.
  Status DialAndGreet(const RetryPolicy& retry);
  /// Blocks until the server's HELLO_ACK (or error frame) arrives.
  Status ReadHelloAck();
  /// Decodes buffered inbound frames; handles acks.
  Status ConsumeInbound();

  int fd_ = -1;
  std::string host_;
  uint16_t port_ = 0;
  uint32_t stream_id_ = 0;
  uint64_t next_seq_ = 1;
  /// Server's next expected seq, from the latest HELLO_ACK: SendEvent
  /// skips (already-delivered) seqs below it.
  uint64_t resume_from_ = 1;
  uint64_t acked_seq_ = 0;
  uint64_t durable_epoch_ = 0;
  /// True once this connection's HELLO_ACK arrived. A Flush directly after
  /// the hello may drain it before ReadHelloAck runs, so receipt is
  /// recorded here rather than inferred from read order.
  bool hello_acked_ = false;
  /// Sent-but-not-durable elements, in seq order.
  std::deque<std::pair<uint64_t, Event>> retained_;
  std::vector<uint8_t> buf_;   // outbound frames pending flush
  std::vector<uint8_t> rbuf_;  // inbound bytes pending decode
  size_t roff_ = 0;
  LoadgenStats stats_;
};

/// Virtual time an unpaced replay generates, sends and flushes per step.
/// The blast starts sending after its first slice, and the client holds
/// one slice plus its unacked retention instead of the whole run. The
/// delivered stream does not depend on it: SyntheticFeed yields the same
/// elements however polls slice virtual time.
inline constexpr DurationMicros kBlastSlice = MillisToMicros(100);

struct ReplayOptions {
  /// Replay elements with ingest_time <= until.
  TimeMicros until = 0;
  /// 0 = unpaced (blast as fast as TCP accepts, kBlastSlice of virtual
  /// time per step — loopback throughput tests); 1.0 = one virtual second
  /// per wall second (live replay); other values scale accordingly.
  double speed = 0.0;
  /// Send kBye on every connection once the replay completes.
  bool send_bye = true;
  /// When a send fails mid-replay (server crashed), reconnect with this
  /// policy and resume from the retained buffer instead of giving up.
  /// max_retries = 0 keeps the old fail-fast behavior.
  RetryPolicy reconnect;
};

/// Replays a feed over TCP: element i of the feed targeting source s goes
/// to conns[s], in the feed's ingestion order. This is where the simulated
/// delay models are repurposed for real sockets — a SyntheticFeed built
/// with a DelayModel yields elements whose ingest_time already includes
/// the artificial per-connection network delay, so Fig-style
/// delayed-watermark experiments run unchanged over real TCP.
Status ReplayFeed(EventFeed& feed,
                  const std::vector<LoadgenConnection*>& conns,
                  const ReplayOptions& options);

}  // namespace klink

#endif  // KLINK_NET_LOADGEN_H_
