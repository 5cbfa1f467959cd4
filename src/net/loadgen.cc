#include "src/net/loadgen.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include "src/common/check.h"
#include "src/net/socket.h"
#include "src/net/wire.h"

namespace klink {
namespace {

/// Wall time between send bursts of a paced replay (speed > 0).
constexpr DurationMicros kPacedPollStep = MillisToMicros(20);

/// Backoff with jitter: sleep a uniform-ish duration in [b/2, b], so a
/// fleet of clients reconnecting after a server restart doesn't stampede
/// in lockstep.
void BackoffSleep(DurationMicros backoff) {
  const DurationMicros half = std::max<DurationMicros>(1, backoff / 2);
  const DurationMicros jitter = WallMicros() % (half + 1);
  std::this_thread::sleep_for(std::chrono::microseconds(half + jitter));
}

}  // namespace

LoadgenConnection::~LoadgenConnection() { Close(); }

Status LoadgenConnection::Connect(const std::string& host, uint16_t port,
                                  uint32_t stream_id,
                                  const RetryPolicy& retry) {
  KLINK_CHECK_EQ(fd_, -1);
  host_ = host;
  port_ = port;
  stream_id_ = stream_id;
  return DialAndGreet(retry);
}

Status LoadgenConnection::DialAndGreet(const RetryPolicy& retry) {
  DurationMicros backoff = std::max<DurationMicros>(1, retry.initial_backoff);
  Status last = Status::Ok();
  for (int attempt = 0; attempt <= retry.max_retries; ++attempt) {
    if (attempt > 0) {
      BackoffSleep(backoff);
      backoff = std::min(backoff * 2,
                         std::max(retry.max_backoff, retry.initial_backoff));
    }
    StatusOr<int> fd = ConnectTcp(host_, port_);
    if (!fd.ok()) {
      last = fd.status();
      continue;
    }
    fd_ = fd.value();
    buf_.clear();
    rbuf_.clear();
    roff_ = 0;
    hello_acked_ = false;
    EncodeHello(stream_id_, &buf_);
    ++stats_.frames_sent;
    if (Status s = Flush(); !s.ok()) {
      Close();
      last = s;
      continue;
    }
    if (Status s = ReadHelloAck(); !s.ok()) {
      Close();
      last = s;
      continue;
    }
    return Status::Ok();
  }
  return last.ok() ? Status::Internal("connect failed") : last;
}

Status LoadgenConnection::ReadHelloAck() {
  uint8_t chunk[4096];
  while (true) {
    if (Status s = ConsumeInbound(); !s.ok()) return s;
    if (hello_acked_) return Status::Ok();
    const StatusOr<int64_t> n = ReadSome(fd_, chunk, sizeof(chunk));
    if (!n.ok()) return n.status();
    if (n.value() == 0) {
      return Status::Internal("connection closed before hello ack");
    }
    if (n.value() < 0) continue;  // spurious wakeup on a blocking socket
    rbuf_.insert(rbuf_.end(), chunk,
                 chunk + static_cast<ptrdiff_t>(n.value()));
  }
}

Status LoadgenConnection::ConsumeInbound() {
  while (true) {
    Frame frame;
    size_t consumed = 0;
    const DecodeResult r = DecodeFrame(rbuf_.data() + roff_,
                                       rbuf_.size() - roff_, &frame,
                                       &consumed);
    if (r == DecodeResult::kNeedMore) break;
    if (r != DecodeResult::kOk) {
      return Status::Internal("undecodable frame from server");
    }
    roff_ += consumed;
    switch (frame.type) {
      case FrameType::kHelloAck:
        // The server's resume point: it has everything below next_seq, so
        // SendEvent skips that prefix and Reconnect replays from here.
        resume_from_ = frame.next_seq;
        hello_acked_ = true;
        break;
      case FrameType::kCheckpointAck:
        // Everything <= durable_seq survived into a durable checkpoint;
        // the retained tail before it can never be needed again.
        acked_seq_ = std::max(acked_seq_, frame.durable_seq);
        durable_epoch_ = std::max(durable_epoch_, frame.epoch);
        while (!retained_.empty() && retained_.front().first <= acked_seq_) {
          retained_.pop_front();
        }
        break;
      case FrameType::kError:
        return Status::Internal(
            "server error " +
            std::to_string(static_cast<int>(frame.error_code)) + ": " +
            frame.error_message);
      case FrameType::kHello:
      case FrameType::kData:
      case FrameType::kWatermark:
      case FrameType::kMarker:
      case FrameType::kBye:
      case FrameType::kRetraction:
      case FrameType::kUpdate:
        return Status::Internal("unexpected frame from server");
    }
  }
  if (roff_ == rbuf_.size()) {
    rbuf_.clear();
  } else if (roff_ > 0) {
    rbuf_.erase(rbuf_.begin(), rbuf_.begin() + static_cast<ptrdiff_t>(roff_));
  }
  roff_ = 0;
  return Status::Ok();
}

Status LoadgenConnection::PollAcks() {
  if (fd_ < 0) return Status::Internal("not connected");
  uint8_t chunk[4096];
  while (true) {
    const StatusOr<int64_t> n = ReadSomeNonBlocking(fd_, chunk, sizeof(chunk));
    if (!n.ok()) return n.status();
    if (n.value() < 0) break;  // nothing pending
    if (n.value() == 0) return Status::Internal("connection closed by server");
    rbuf_.insert(rbuf_.end(), chunk,
                 chunk + static_cast<ptrdiff_t>(n.value()));
  }
  return ConsumeInbound();
}

Status LoadgenConnection::SendEvent(const Event& e) {
  KLINK_CHECK_GE(fd_, 0);
  const uint64_t seq = next_seq_++;
  // Retain before any send attempt: a send that dies mid-frame is replayed
  // from here after reconnect.
  retained_.emplace_back(seq, e);
  if (seq < resume_from_) {
    // The server already holds this element (a restarted client is
    // regenerating a stream whose prefix survived): skip the bytes, keep
    // the retention until a checkpoint ack covers it.
    ++stats_.skipped_frames;
    return Status::Ok();
  }
  EncodeEvent(e, seq, &buf_);
  ++stats_.frames_sent;
  if (e.is_data()) ++stats_.data_events_sent;
  if (buf_.size() >= kFlushThresholdBytes) return Flush();
  return Status::Ok();
}

Status LoadgenConnection::Flush() {
  if (!buf_.empty()) {
    const Status s = SendAll(fd_, buf_.data(), buf_.size());
    if (s.ok()) stats_.bytes_sent += static_cast<int64_t>(buf_.size());
    buf_.clear();
    if (!s.ok()) return s;
  }
  // Ack frames arrive asynchronously; drain them here so the retained
  // buffer stays bounded by the checkpoint interval, not the run length.
  return PollAcks();
}

Status LoadgenConnection::SendBye() {
  EncodeBye(&buf_);
  ++stats_.frames_sent;
  const Status s = SendAll(fd_, buf_.data(), buf_.size());
  if (s.ok()) stats_.bytes_sent += static_cast<int64_t>(buf_.size());
  buf_.clear();
  if (!s.ok()) return s;
  // Drain until the server closes (it does so once it decodes the bye).
  // Closing first is not an option: SendAll only guarantees the bytes
  // reached our kernel buffer, and if we close while checkpoint acks sit
  // unread in our receive queue, the close emits an RST instead of a FIN —
  // and an arriving RST destroys the server's receive queue, silently
  // truncating the tail of the stream it had not read yet. Orderly close
  // and post-bye errors both mean the server is done with us; neither is a
  // failure of the replay (the bye itself is fire-and-forget).
  const int64_t deadline = WallMicros() + SecondsToMicros(30);
  while (WallMicros() < deadline) {
    uint8_t chunk[4096];
    const StatusOr<int64_t> n = ReadSomeNonBlocking(fd_, chunk, sizeof(chunk));
    if (!n.ok() || n.value() == 0) break;
    if (n.value() < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    rbuf_.insert(rbuf_.end(), chunk,
                 chunk + static_cast<ptrdiff_t>(n.value()));
    if (!ConsumeInbound().ok()) break;
  }
  return Status::Ok();
}

Status LoadgenConnection::Reconnect(const RetryPolicy& retry) {
  CloseFd(fd_);
  fd_ = -1;
  buf_.clear();
  rbuf_.clear();
  roff_ = 0;
  if (Status s = DialAndGreet(retry); !s.ok()) return s;
  ++stats_.reconnects;
  // Replay the retained tail the (possibly restored) server is missing.
  // Anything below resume_from_ it already has; duplicates beyond that are
  // impossible — resume_from_ is exactly its next expected seq.
  int64_t replayed = 0;
  for (const auto& [seq, e] : retained_) {
    if (seq < resume_from_) continue;
    EncodeEvent(e, seq, &buf_);
    ++replayed;
    if (buf_.size() >= kFlushThresholdBytes) {
      if (Status s = Flush(); !s.ok()) return s;
    }
  }
  stats_.replayed_frames += replayed;
  stats_.frames_sent += replayed;
  return Flush();
}

void LoadgenConnection::Close() {
  CloseFd(fd_);
  fd_ = -1;
  buf_.clear();
  rbuf_.clear();
  roff_ = 0;
}

Status ReplayFeed(EventFeed& feed,
                  const std::vector<LoadgenConnection*>& conns,
                  const ReplayOptions& options) {
  KLINK_CHECK(!conns.empty());
  std::vector<EventFeed::FeedElement> scratch;
  const int64_t unbounded = std::numeric_limits<int64_t>::max();

  // Send with crash recovery: when a send fails and a reconnect policy is
  // armed, re-dial and resume — the failed element is already retained, so
  // Reconnect's replay covers it and the replay loop just moves on.
  auto recover = [&](LoadgenConnection* c, const Status& s) -> Status {
    if (s.ok() || options.reconnect.max_retries == 0) return s;
    return c->Reconnect(options.reconnect);
  };

  const int64_t wall_start = WallMicros();
  const bool paced = options.speed > 0.0;
  TimeMicros horizon = 0;
  while (true) {
    if (paced) {
      horizon = std::min<TimeMicros>(
          options.until,
          static_cast<TimeMicros>(
              static_cast<double>(WallMicros() - wall_start) *
              options.speed));
    } else {
      horizon = std::min(options.until, horizon + kBlastSlice);
    }
    scratch.clear();
    feed.PollUpTo(horizon, unbounded, &scratch);
    for (const EventFeed::FeedElement& fe : scratch) {
      KLINK_CHECK(fe.source_index >= 0 &&
                  fe.source_index < static_cast<int>(conns.size()));
      LoadgenConnection* c = conns[static_cast<size_t>(fe.source_index)];
      if (const Status s = recover(c, c->SendEvent(fe.event)); !s.ok()) {
        return s;
      }
    }
    for (LoadgenConnection* c : conns) {
      if (const Status s = recover(c, c->Flush()); !s.ok()) return s;
    }
    if (horizon >= options.until) break;
    if (paced) {
      std::this_thread::sleep_for(std::chrono::microseconds(kPacedPollStep));
    }
  }

  for (LoadgenConnection* c : conns) {
    if (const Status s = recover(c, c->Flush()); !s.ok()) return s;
  }
  if (options.send_bye) {
    for (LoadgenConnection* c : conns) {
      if (const Status s = c->SendBye(); !s.ok()) return s;
    }
  }
  return Status::Ok();
}

}  // namespace klink
