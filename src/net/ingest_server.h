#ifndef KLINK_NET_INGEST_SERVER_H_
#define KLINK_NET_INGEST_SERVER_H_

#include <poll.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/net/ingest_gateway.h"
#include "src/net/wire.h"

namespace klink {

struct IngestServerConfig {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see port()).
  uint16_t port = 0;
  /// Connections with no traffic for this long are closed with an
  /// kIdleTimeout error frame; 0 disables. Paused (backpressured)
  /// connections are exempt — they are stalled on purpose.
  int64_t idle_timeout_ms = 0;
  /// Dynamic tenant attach: when set, a kHello naming a stream the gateway
  /// does not know is offered to this hook instead of drawing
  /// kUnknownStream. The hook attaches the tenant (registers the stream
  /// with the gateway, deploys the query) and returns true to accept the
  /// hello; returning false — stream id outside the tenant id space, say —
  /// keeps the unknown-stream rejection. Unset (the default) preserves the
  /// closed-world behavior: unknown streams are a client error.
  std::function<bool(uint32_t stream_id)> on_unknown_stream;
};

/// Non-blocking, poll()-based TCP ingest front end. Accepts many client
/// connections; the first frame on each must be kHello binding it to a
/// registered gateway stream, after which element frames are decoded and
/// staged through the IngestGateway. Each socket read lands in the tail of
/// the connection's buffer, and its frames are staged through the
/// connection's gateway Stream, resolved once per read: credit and the
/// sequence number are checked frame by frame, and the staged run is
/// committed with the read's counters under one gateway lock.
///
/// Threads: one thread polls (PollOnce): ServeIngest's I/O thread, or the
/// owner's loop when it polls and runs the engine in turn. Everything
/// else may be called from the engine thread: SendCheckpointAck only
/// queues the ack in the gateway, and PollOnce (or Stop) sends it; Wake
/// interrupts a poll. Start and Stop run while no thread polls.
/// Robustness: a malformed or protocol-violating frame draws an error
/// frame and a connection close (never UB — the decoder is strictly
/// bounds-checked); a mid-stream disconnect just ends that stream's
/// arrivals; out-of-credit streams pause at frame granularity and resume
/// after the engine drains them (see IngestGateway).
class IngestServer {
 public:
  IngestServer(const IngestServerConfig& config, IngestGateway* gateway);
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Binds and listens. Must be called before PollOnce.
  Status Start();

  /// Sends the queued acks, then closes the listener and every
  /// connection.
  void Stop();

  /// The bound port (useful with config.port = 0).
  uint16_t port() const { return port_; }

  /// One poll iteration: sends the queued acks, waits up to `timeout_ms`
  /// for socket activity or a Wake, accepts pending connections, reads and
  /// decodes frames, and resumes paused connections whose streams regained
  /// credit. Returns the number of element frames delivered to the
  /// gateway.
  int64_t PollOnce(int timeout_ms);

  /// Ends a PollOnce that waits, now or at its next wait.
  void Wake();

  /// Connections accepted and not yet closed (the gateway's count).
  int num_connections() const { return gateway_->open_connections(); }

  /// Queues a CHECKPOINT_ACK for the connection bound to `stream_id`,
  /// telling the client every element with seq <= durable_seq is covered
  /// by durable checkpoint `epoch` and may be dropped from its replay
  /// buffer. The next PollOnce or Stop sends it; it is dropped when the
  /// stream has no live connection then (the client learns the durable
  /// prefix from HELLO_ACK when it reconnects). Wired to the checkpoint
  /// coordinator's ack callback, on the engine thread.
  void SendCheckpointAck(uint32_t stream_id, uint64_t epoch,
                         uint64_t durable_seq);

  /// Swaps the dynamic-attach hook (IngestServerConfig::on_unknown_stream)
  /// for `hook`, returning the one it replaces. While no thread polls.
  std::function<bool(uint32_t)> ExchangeUnknownStreamHook(
      std::function<bool(uint32_t)> hook);

 private:
  struct Connection {
    int fd = -1;
    /// Receive buffer: buf[off, end) is read and not yet decoded. Reads
    /// land at `end`; a connection that is read holds at most a partial
    /// frame between reads, so buf stays one read and one frame long.
    std::vector<uint8_t> buf;
    size_t off = 0;
    size_t end = 0;
    int64_t stream_id = -1;    // -1 until kHello binds one
    bool paused = false;       // out of gateway credit
    int64_t last_activity_micros = 0;
    /// Counters of the current read, committed with its staged run.
    int64_t read_bytes = 0;
    int64_t control_frames = 0;
  };

  void AcceptPending();
  /// Reads one chunk and decodes. Returns false when the connection was
  /// closed (gracefully or not).
  bool ReadAndDecode(Connection& c, int64_t* delivered);
  /// Decodes buffered frames until exhausted, out of credit, or error.
  /// Returns false when the connection was closed.
  bool DecodeBuffered(Connection& c, int64_t* delivered);
  /// Commits `stream`'s staged run (null before a hello) with the
  /// connection's read counters.
  void CommitRead(Connection& c, IngestGateway::Stream* stream);
  /// Sends a best-effort error frame and closes the connection.
  void FailConnection(Connection& c, WireError code, const std::string& msg);
  void CloseConnection(Connection& c);
  void CompactBuffer(Connection& c);
  void SendQueuedAcks();

  IngestServerConfig config_;
  IngestGateway* gateway_;
  int listen_fd_ = -1;
  int wake_fd_ = -1;  // eventfd in every poll set; Wake() writes it
  uint16_t port_ = 0;
  std::vector<Connection> conns_;
  std::vector<uint8_t> send_scratch_;
  std::vector<QueuedAck> acks_;  // SendQueuedAcks scratch
  /// PollOnce's per-call lists, kept to reuse their storage.
  std::vector<pollfd> poll_fds_;
  std::vector<size_t> poll_conns_;  // conns_ index of poll_fds_[i + 2]
  std::vector<size_t> to_close_;
};

}  // namespace klink

#endif  // KLINK_NET_INGEST_SERVER_H_
