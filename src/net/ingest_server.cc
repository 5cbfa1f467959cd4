#include "src/net/ingest_server.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/thread_annotations.h"
#include "src/net/socket.h"

namespace klink {

namespace {

// Max bytes read from one connection per poll iteration (fairness, and a
// bound on per-connection buffering).
constexpr size_t kReadChunkBytes = 64 * 1024;
static_assert(kReadChunkBytes > kWireHeaderLen);
// The longest valid frame, an error frame with the longest message. A
// connection that is read (not paused) holds less than this undecoded.
constexpr size_t kMaxFrameBytes = kWireHeaderLen + 2 + kMaxErrorMessageLen;

}  // namespace

IngestServer::IngestServer(const IngestServerConfig& config,
                           IngestGateway* gateway)
    : config_(config), gateway_(gateway) {
  KLINK_CHECK(gateway_ != nullptr);
  KLINK_CHECK_GE(config_.idle_timeout_ms, 0);
}

IngestServer::~IngestServer() { Stop(); }

Status IngestServer::Start() {
  KLINK_CHECK_EQ(listen_fd_, -1);
  StatusOr<int> fd = ListenTcp(config_.port, &port_);
  if (!fd.ok()) return fd.status();
  listen_fd_ = fd.value();
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    Stop();
    return Status::Internal("eventfd failed");
  }
  gateway_->SetResumeHook([this] { Wake(); });
  return Status::Ok();
}

void IngestServer::Stop() {
  if (listen_fd_ >= 0) SendQueuedAcks();
  for (Connection& c : conns_) CloseFd(c.fd);
  conns_.clear();
  CloseFd(listen_fd_);
  listen_fd_ = -1;
  if (wake_fd_ >= 0) gateway_->SetResumeHook(nullptr);
  CloseFd(wake_fd_);
  wake_fd_ = -1;
}

void IngestServer::Wake() {
  const uint64_t one = 1;
  // A full counter already wakes the poll; nothing else can fail here.
  (void)!::write(wake_fd_, &one, sizeof(one));
}

std::function<bool(uint32_t)> IngestServer::ExchangeUnknownStreamHook(
    std::function<bool(uint32_t)> hook) {
  std::swap(config_.on_unknown_stream, hook);
  return hook;
}

int64_t IngestServer::PollOnce(int timeout_ms) {
  KLINK_CHECK_GE(listen_fd_, 0);
  int64_t delivered = 0;
  SendQueuedAcks();

  // Resume connections whose streams regained credit since the last poll
  // (the engine drains staging queues between polls). Buffered bytes are
  // decoded first; the connection may immediately re-pause.
  for (size_t i = 0; i < conns_.size();) {
    Connection& c = conns_[i];
    if (c.paused && gateway_->TryResume(static_cast<uint32_t>(c.stream_id))) {
      c.paused = false;
      if (!DecodeBuffered(c, &delivered)) {
        conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(i));
        continue;
      }
    }
    ++i;
  }

  poll_fds_.clear();
  poll_conns_.clear();
  poll_fds_.push_back(pollfd{listen_fd_, POLLIN, 0});
  poll_fds_.push_back(pollfd{wake_fd_, POLLIN, 0});
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i].paused) continue;
    poll_fds_.push_back(pollfd{conns_[i].fd, POLLIN, 0});
    poll_conns_.push_back(i);
  }

  int rc = 0;
  {
    // Under the schedule explorer the other threads run while this one
    // waits in the kernel.
    ScheduleExternalWait external;
    rc = ::poll(poll_fds_.data(), static_cast<nfds_t>(poll_fds_.size()),
                timeout_ms);
  }
  if (rc < 0) return delivered;  // EINTR: retry next iteration

  if ((poll_fds_[1].revents & POLLIN) != 0) {
    uint64_t wakes = 0;
    (void)!::read(wake_fd_, &wakes, sizeof(wakes));  // re-arm the wake
  }
  if ((poll_fds_[0].revents & POLLIN) != 0) AcceptPending();

  to_close_.clear();
  for (size_t i = 0; i < poll_conns_.size(); ++i) {
    const short ev = poll_fds_[i + 2].revents;
    if ((ev & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
    Connection& c = conns_[poll_conns_[i]];
    if (!ReadAndDecode(c, &delivered)) to_close_.push_back(poll_conns_[i]);
  }
  // Erase closed connections back-to-front so indices stay valid
  // (poll_conns_ is ascending, so to_close_ is too).
  for (size_t i = to_close_.size(); i > 0; --i) {
    conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(to_close_[i - 1]));
  }

  if (config_.idle_timeout_ms > 0) {
    const int64_t now = WallMicros();
    const int64_t limit = config_.idle_timeout_ms * 1000;
    for (size_t i = conns_.size(); i > 0; --i) {
      Connection& c = conns_[i - 1];
      if (c.paused || now - c.last_activity_micros <= limit) continue;
      gateway_->NoteIdleTimeout();
      FailConnection(c, WireError::kIdleTimeout, "idle timeout");
      conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(i - 1));
    }
  }
  return delivered;
}

void IngestServer::AcceptPending() {
  // Clients are outside the program's control, so their connections are
  // capped; one over the cap draws an error frame and is closed.
  constexpr size_t kMaxConnections = 256;
  while (true) {
    StatusOr<int> fd = AcceptNonBlocking(listen_fd_);
    if (!fd.ok() || fd.value() < 0) return;
    if (conns_.size() >= kMaxConnections) {
      send_scratch_.clear();
      EncodeError(WireError::kProtocolViolation, "too many connections",
                  &send_scratch_);
      // Best effort: the connection is rejected either way.
      (void)SendAll(fd.value(), send_scratch_.data(), send_scratch_.size());
      CloseFd(fd.value());
      continue;
    }
    Connection c;
    c.fd = fd.value();
    c.last_activity_micros = WallMicros();
    conns_.push_back(std::move(c));
    gateway_->NoteAccepted();
  }
}

bool IngestServer::ReadAndDecode(Connection& c, int64_t* delivered) {
  // Receive straight into the buffer's tail. Sized for one read behind a
  // partial frame, the buffer is allocated (and zero-filled) once.
  if (c.buf.size() < c.end + kReadChunkBytes) {
    c.buf.resize(c.end + kReadChunkBytes + kMaxFrameBytes);
  }
  const StatusOr<int64_t> n =
      ReadSome(c.fd, c.buf.data() + c.end, kReadChunkBytes);
  if (!n.ok()) {
    CloseConnection(c);
    return false;
  }
  if (n.value() < 0) return true;  // spurious wakeup, nothing to read
  if (n.value() == 0) {
    // Orderly shutdown without kBye: flush what we have and end the
    // stream's arrivals. The engine keeps running on whatever arrived.
    CloseConnection(c);
    return false;
  }
  c.last_activity_micros = WallMicros();
  c.read_bytes += n.value();
  c.end += static_cast<size_t>(n.value());
  return DecodeBuffered(c, delivered);
}

bool IngestServer::DecodeBuffered(Connection& c, int64_t* delivered) {
  // The connection's gateway stream, resolved once per call (or by the
  // hello below): frames make no lookup. Gateway entries keep their
  // address while the dynamic-attach hook registers other streams.
  IngestGateway::Stream* stream =
      c.stream_id < 0
          ? nullptr
          : &gateway_->GetStream(static_cast<uint32_t>(c.stream_id));
  // Reused across frames: each decode writes the fields of its type.
  Frame frame;
  int64_t staged = 0;
  bool open = true;
  while (open && !c.paused) {
    size_t consumed = 0;
    const DecodeResult r = DecodeFrame(c.buf.data() + c.off, c.end - c.off,
                                       &frame, &consumed);
    if (r == DecodeResult::kNeedMore) break;
    if (r == DecodeResult::kVersionMismatch) {
      // Version skew (e.g. a v1 client against this v2 server) draws a
      // typed error, not a generic malformed-frame close: the client can
      // tell "upgrade me" apart from "I sent garbage".
      gateway_->NoteMalformedFrame();
      FailConnection(c, WireError::kVersionMismatch,
                     "unsupported protocol version");
      open = false;
      break;
    }
    if (r == DecodeResult::kMalformed) {
      gateway_->NoteMalformedFrame();
      FailConnection(c, WireError::kMalformedFrame, "malformed frame");
      open = false;
      break;
    }
    if (IsElementFrame(frame.type)) {
      if (stream == nullptr) {
        FailConnection(c, WireError::kProtocolViolation,
                       "element frame before hello");
        open = false;
        break;
      }
      if (!stream->HasCredit()) {
        // The credit seen at the last commit may be stale: commit the run
        // so far, which looks again.
        CommitRead(c, stream);
      }
      if (!stream->HasCredit()) {
        // Out of credit: leave the frame in the buffer and stop reading
        // this socket until the engine drains the staging queue.
        gateway_->NoteStall(static_cast<uint32_t>(c.stream_id));
        c.paused = true;
        break;
      }
      switch (stream->AcceptSeq(frame.seq)) {
        case IngestGateway::SeqDecision::kAccept:
          stream->Deliver(frame.event, static_cast<int64_t>(consumed));
          ++staged;
          break;
        case IngestGateway::SeqDecision::kDuplicate:
          // Replay overlap after a client reconnect: already staged (and
          // possibly already checkpointed) — drop for exactly-once.
          break;
        case IngestGateway::SeqDecision::kGap:
          FailConnection(c, WireError::kProtocolViolation, "sequence gap");
          open = false;
          break;
      }
      if (!open) break;
    } else {
      ++c.control_frames;
      switch (frame.type) {
        case FrameType::kHello:
          if (c.stream_id >= 0) {
            FailConnection(c, WireError::kProtocolViolation,
                           "duplicate hello");
            open = false;
          } else if (!gateway_->HasStream(frame.stream_id) &&
                     !(config_.on_unknown_stream != nullptr &&
                       config_.on_unknown_stream(frame.stream_id) &&
                       gateway_->HasStream(frame.stream_id))) {
            // Either no dynamic-attach hook, or it declined, or it claimed
            // success without registering the stream (a broken hook).
            FailConnection(c, WireError::kUnknownStream,
                           "unknown stream id");
            open = false;
          } else {
            c.stream_id = frame.stream_id;
            stream = &gateway_->GetStream(frame.stream_id);
            gateway_->NoteConnection(frame.stream_id, /*open=*/true);
            // HELLO_ACK tells the client where to (re)start: the next
            // acceptable sequence number. On a fresh stream that is 1; on
            // a reconnect (or after a checkpoint restore rewound the
            // cursor) the client skips or replays accordingly.
            send_scratch_.clear();
            EncodeHelloAck(frame.stream_id,
                           gateway_->last_seq_received(frame.stream_id) + 1,
                           &send_scratch_);
            if (!SendAll(c.fd, send_scratch_.data(), send_scratch_.size())
                     .ok()) {
              CloseConnection(c);
              open = false;
            }
          }
          break;
        case FrameType::kBye:
          if (c.stream_id >= 0) {
            // Staged before the goodbye: an ended stream's arrival
            // watermark is infinite.
            CommitRead(c, stream);
            gateway_->MarkEndOfStream(static_cast<uint32_t>(c.stream_id));
          }
          CloseConnection(c);
          open = false;
          break;
        case FrameType::kError:
          // Clients may report errors before disconnecting; just close.
          CloseConnection(c);
          open = false;
          break;
        case FrameType::kHelloAck:
        case FrameType::kCheckpointAck:
          // Server-to-client acks; one arriving from a client is ignored.
          break;
        case FrameType::kData:
        case FrameType::kWatermark:
        case FrameType::kMarker:
        case FrameType::kRetraction:
        case FrameType::kUpdate:
          break;  // element frames took the branch above
      }
    }
    if (!open) break;
    c.off += consumed;
  }
  // Every exit commits the staged run with the read's counters: here, or
  // in CloseConnection.
  if (open) {
    CommitRead(c, stream);
    CompactBuffer(c);
  }
  *delivered += staged;
  return open;
}

void IngestServer::CommitRead(Connection& c, IngestGateway::Stream* stream) {
  gateway_->CommitRead(stream, c.read_bytes, c.control_frames);
  c.read_bytes = 0;
  c.control_frames = 0;
}

void IngestServer::SendCheckpointAck(uint32_t stream_id, uint64_t epoch,
                                     uint64_t durable_seq) {
  gateway_->QueueAck(stream_id, epoch, durable_seq);
}

void IngestServer::SendQueuedAcks() {
  gateway_->TakeAcks(&acks_);
  for (const QueuedAck& ack : acks_) {
    for (Connection& c : conns_) {
      if (c.fd < 0 || c.stream_id != static_cast<int64_t>(ack.stream_id)) {
        continue;
      }
      send_scratch_.clear();
      EncodeCheckpointAck(ack.epoch, ack.durable_seq, &send_scratch_);
      // Best effort: a failed send just leaves the client's replay buffer
      // larger than necessary; the next ack (or HELLO_ACK) trims it.
      (void)SendAll(c.fd, send_scratch_.data(), send_scratch_.size());
      break;
    }
  }
}

void IngestServer::FailConnection(Connection& c, WireError code,
                                  const std::string& msg) {
  send_scratch_.clear();
  EncodeError(code, msg, &send_scratch_);
  // Best effort: the peer may already be gone or the socket full.
  (void)SendAll(c.fd, send_scratch_.data(), send_scratch_.size());
  CloseConnection(c);
}

void IngestServer::CloseConnection(Connection& c) {
  if (c.stream_id >= 0) {
    const uint32_t id = static_cast<uint32_t>(c.stream_id);
    CommitRead(c, &gateway_->GetStream(id));
    gateway_->NoteConnection(id, /*open=*/false);
    c.stream_id = -1;
  } else {
    CommitRead(c, nullptr);
  }
  CloseFd(c.fd);
  c.fd = -1;
  gateway_->NoteClosed();
}

void IngestServer::CompactBuffer(Connection& c) {
  if (c.off == 0) return;
  std::copy(c.buf.begin() + static_cast<ptrdiff_t>(c.off),
            c.buf.begin() + static_cast<ptrdiff_t>(c.end), c.buf.begin());
  c.end -= c.off;
  c.off = 0;
}

}  // namespace klink
