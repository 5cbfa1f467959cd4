#include "src/net/ingest_gateway.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/check.h"
#include "src/net/socket.h"
#include "src/runtime/audit.h"

namespace klink {

IngestGateway::IngestGateway() : audit_(AuditEnabledFromEnv()) {}

void IngestGateway::Stream::Audit() const {
  if (!audit_) return;
  // Staging ring buffer: incremental byte/data counters vs a full walk.
  KLINK_CHECK_EQ(staged_.bytes(), staged_.AuditRecomputeBytes());
  KLINK_CHECK_EQ(staged_.data_count(), staged_.AuditRecomputeDataCount());
  // Scratch run: the pending-commit byte total matches its elements.
  int64_t scratch = 0;
  for (const Event& e : scratch_) {
    scratch += e.payload_bytes + StreamQueue::kPerEventOverhead;
  }
  KLINK_CHECK_EQ(scratch_bytes_, scratch);
  // A stalled connection is only declared while over the resume threshold
  // or still undrained; staged volume never exceeds budget by more than
  // the final committed run (credit is checked pre-decode, per frame).
  KLINK_CHECK_GE(staged_.bytes(), 0);
}

void IngestGateway::RegisterStream(uint32_t stream_id,
                                   const IngestStreamConfig& config) {
  KLINK_CHECK_GT(config.byte_budget, 0);
  KLINK_CHECK(streams_.find(stream_id) == streams_.end());
  Stream& s = streams_[stream_id];
  s.config_ = config;
  s.audit_ = audit_;
}

bool IngestGateway::HasStream(uint32_t stream_id) const {
  return streams_.find(stream_id) != streams_.end();
}

IngestGateway::Stream& IngestGateway::GetStream(uint32_t stream_id) {
  auto it = streams_.find(stream_id);
  KLINK_CHECK(it != streams_.end());
  return it->second;
}

const IngestGateway::Stream& IngestGateway::GetStream(
    uint32_t stream_id) const {
  auto it = streams_.find(stream_id);
  KLINK_CHECK(it != streams_.end());
  return it->second;
}

void IngestGateway::Flush(uint32_t stream_id) {
  Stream& s = GetStream(stream_id);
  if (s.scratch_.empty()) return;
  s.staged_.PushBatch(s.scratch_.data(),
                      static_cast<int64_t>(s.scratch_.size()));
  // Clients send in ingestion order, so the last committed element's
  // ingest_time is the stream's arrival watermark.
  s.staged_through_ =
      std::max(s.staged_through_, s.scratch_.back().ingest_time);
  metrics_.AddFrames(stream_id, static_cast<int64_t>(s.scratch_.size()),
                     s.scratch_wire_bytes_, s.scratch_data_events_);
  s.scratch_.clear();
  s.scratch_bytes_ = 0;
  s.scratch_wire_bytes_ = 0;
  s.scratch_data_events_ = 0;
  IngestStreamMetrics& m = metrics_.stream(stream_id);
  m.peak_staged_bytes = std::max(m.peak_staged_bytes, s.staged_.bytes());
  s.Audit();
}

void IngestGateway::NoteStall(uint32_t stream_id) {
  Stream& s = GetStream(stream_id);
  if (s.stalled_) return;
  s.stalled_ = true;
  s.stall_start_micros_ = WallMicros();
  ++metrics_.stream(stream_id).backpressure_stalls;
}

bool IngestGateway::TryResume(uint32_t stream_id) {
  Stream& s = GetStream(stream_id);
  if (!s.stalled_) return true;
  constexpr double kResumeFraction = 0.5;
  const int64_t resume_below = static_cast<int64_t>(
      static_cast<double>(s.config_.byte_budget) * kResumeFraction);
  if (s.staged_.bytes() + s.scratch_bytes_ >= resume_below) return false;
  s.stalled_ = false;
  metrics_.stream(stream_id).stall_micros +=
      WallMicros() - s.stall_start_micros_;
  return true;
}

void IngestGateway::MarkEndOfStream(uint32_t stream_id) {
  GetStream(stream_id).ended_ = true;
}

void IngestGateway::NoteConnection(uint32_t stream_id, bool open) {
  Stream& s = GetStream(stream_id);
  s.greeted_ = true;
  s.connections_ += open ? 1 : -1;
  KLINK_CHECK_GE(s.connections_, 0);
}

TimeMicros IngestGateway::PeekIngestTime(uint32_t stream_id) const {
  return GetStream(stream_id).OldestIngestTime();
}

Event IngestGateway::Pop(uint32_t stream_id) {
  Stream& s = GetStream(stream_id);
  Event e = s.staged_.Pop();
  ++s.delivered_seq_;
  s.Audit();
  return e;
}

uint64_t IngestGateway::last_seq_received(uint32_t stream_id) const {
  return GetStream(stream_id).last_seq_received_;
}

uint64_t IngestGateway::delivered_seq(uint32_t stream_id) const {
  return GetStream(stream_id).delivered_seq_;
}

int64_t IngestGateway::duplicate_events(uint32_t stream_id) const {
  return GetStream(stream_id).duplicates_;
}

void IngestGateway::RestoreCursor(uint32_t stream_id, uint64_t seq) {
  Stream& s = GetStream(stream_id);
  KLINK_CHECK(s.staged_.empty());  // rewind before serving, not mid-stream
  KLINK_CHECK(s.scratch_.empty());
  s.last_seq_received_ = seq;
  s.delivered_seq_ = seq;
}

int64_t IngestGateway::staged_bytes(uint32_t stream_id) const {
  return GetStream(stream_id).staged_.bytes();
}

int64_t IngestGateway::staged_events(uint32_t stream_id) const {
  return GetStream(stream_id).staged_.size();
}

int64_t IngestGateway::peak_staged_bytes(uint32_t stream_id) const {
  auto it = metrics_.streams().find(stream_id);
  return it == metrics_.streams().end() ? 0 : it->second.peak_staged_bytes;
}

bool IngestGateway::end_of_stream(uint32_t stream_id) const {
  return GetStream(stream_id).ended_;
}

int64_t IngestGateway::data_events(uint32_t stream_id) const {
  auto it = metrics_.streams().find(stream_id);
  return it == metrics_.streams().end() ? 0 : it->second.data_events;
}

TimeMicros IngestGateway::StagedThrough(uint32_t stream_id) const {
  const Stream& s = GetStream(stream_id);
  if (s.ended_) return std::numeric_limits<TimeMicros>::max();
  return s.staged_through_;
}

TimeMicros IngestGateway::MinStagedThrough() const {
  if (streams_.empty()) return kNoTime;
  TimeMicros frontier = std::numeric_limits<TimeMicros>::max();
  for (const auto& [id, s] : streams_) {
    if (!s.ended_) frontier = std::min(frontier, s.staged_through_);
  }
  return frontier;
}

bool IngestGateway::AllStreamsFinished() const {
  if (streams_.empty()) return false;
  for (const auto& [id, s] : streams_) {
    if (!s.ended_ && (!s.greeted_ || s.connections_ > 0)) return false;
  }
  return true;
}

int64_t IngestGateway::TotalStagedEvents() const {
  int64_t total = 0;
  for (const auto& [id, s] : streams_) total += s.staged_.size();
  return total;
}

NetworkFeed::NetworkFeed(IngestGateway* gateway,
                         std::vector<uint32_t> stream_ids)
    : gateway_(gateway), stream_ids_(std::move(stream_ids)) {
  KLINK_CHECK(gateway_ != nullptr);
  KLINK_CHECK(!stream_ids_.empty());
  for (uint32_t id : stream_ids_) streams_.push_back(&gateway_->GetStream(id));
}

void NetworkFeed::PollUpTo(TimeMicros now, int64_t max_bytes,
                           std::vector<FeedElement>* out) {
  // Merge the feed's streams in ingestion order, delivering elements due
  // by `now` under the same byte-budget rule as SyntheticFeed::PollUpTo
  // (always at least one element, stop before exceeding the budget).
  // Ties go to the lowest stream, so the stream with the oldest due front
  // keeps the lead for a run: through every element due before the other
  // streams' fronts, or at the same time as the fronts of higher streams.
  // A one-stream feed takes its whole due prefix in one run.
  int64_t delivered = 0;
  bool full = false;
  while (!full) {
    size_t best = streams_.size();
    TimeMicros best_time = kNoTime;
    for (size_t i = 0; i < streams_.size(); ++i) {
      const TimeMicros t = streams_[i]->OldestIngestTime();
      if (t == kNoTime || t > now) continue;
      if (best == streams_.size() || t < best_time) {
        best = i;
        best_time = t;
      }
    }
    if (best == streams_.size()) break;
    TimeMicros through = now;
    for (size_t i = 0; i < streams_.size(); ++i) {
      const TimeMicros t = streams_[i]->OldestIngestTime();
      if (i == best || t == kNoTime) continue;
      through = std::min(through, i < best ? t - 1 : t);
    }
    const int source = static_cast<int>(best);
    streams_[best]->PopWhile([&](const Event& e) {
      if (e.ingest_time > through) return false;
      const int64_t sz = e.payload_bytes + StreamQueue::kPerEventOverhead;
      if (delivered > 0 && delivered + sz > max_bytes) {
        full = true;
        return false;
      }
      delivered += sz;
      out->push_back(FeedElement{source, e});
      return true;
    });
  }
}

int64_t NetworkFeed::generated_events() const {
  int64_t n = 0;
  for (uint32_t id : stream_ids_) n += gateway_->data_events(id);
  return n;
}

}  // namespace klink
