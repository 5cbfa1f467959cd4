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
/// sequence number are checked frame by frame, and the frame counters are
/// committed with the staged run.
///
/// Single-threaded: the owner calls PollOnce() from the engine loop; all
/// asynchrony lives in the kernel's socket buffers. Robustness: a
/// malformed or protocol-violating frame draws an error frame and a
/// connection close (never UB — the decoder is strictly bounds-checked);
/// a mid-stream disconnect just ends that stream's arrivals; out-of-credit
/// streams pause at frame granularity and resume after the engine drains
/// them (see IngestGateway).
class IngestServer {
 public:
  IngestServer(const IngestServerConfig& config, IngestGateway* gateway);
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Binds and listens. Must be called before PollOnce.
  Status Start();

  /// Closes the listener and every connection.
  void Stop();

  /// The bound port (useful with config.port = 0).
  uint16_t port() const { return port_; }

  /// One poll iteration: waits up to `timeout_ms` for socket activity,
  /// accepts pending connections, reads and decodes frames, and resumes
  /// paused connections whose streams regained credit. Returns the number
  /// of element frames delivered to the gateway.
  int64_t PollOnce(int timeout_ms);

  int num_connections() const { return static_cast<int>(conns_.size()); }

  /// Sends a CHECKPOINT_ACK to the connection bound to `stream_id`, telling
  /// the client every element with seq <= durable_seq is covered by durable
  /// checkpoint `epoch` and may be dropped from its replay buffer. No-op
  /// when the stream has no live connection (the client learns the durable
  /// prefix from HELLO_ACK when it reconnects). Wired to the checkpoint
  /// coordinator's ack callback; both run on the engine thread.
  void SendCheckpointAck(uint32_t stream_id, uint64_t epoch,
                         uint64_t durable_seq);

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
  };

  void AcceptPending();
  /// Reads one chunk and decodes. Returns false when the connection was
  /// closed (gracefully or not).
  bool ReadAndDecode(Connection& c, int64_t* delivered);
  /// Decodes buffered frames until exhausted, out of credit, or error.
  /// Returns false when the connection was closed.
  bool DecodeBuffered(Connection& c, int64_t* delivered);
  /// Sends a best-effort error frame and closes the connection.
  void FailConnection(Connection& c, WireError code, const std::string& msg);
  void CloseConnection(Connection& c);
  void CompactBuffer(Connection& c);

  IngestServerConfig config_;
  IngestGateway* gateway_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<Connection> conns_;
  std::vector<uint8_t> send_scratch_;
  /// PollOnce's per-call lists, kept to reuse their storage.
  std::vector<pollfd> poll_fds_;
  std::vector<size_t> poll_conns_;  // conns_ index of poll_fds_[i + 1]
  std::vector<size_t> to_close_;
};

}  // namespace klink

#endif  // KLINK_NET_INGEST_SERVER_H_
