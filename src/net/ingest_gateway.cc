#include "src/net/ingest_gateway.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/check.h"
#include "src/net/socket.h"
#include "src/runtime/audit.h"

namespace klink {
namespace {

int64_t StagedCost(const Event& e) {
  return e.payload_bytes + StreamQueue::kPerEventOverhead;
}

}  // namespace

IngestGateway::IngestGateway() : audit_(AuditEnabledFromEnv()) {}

void IngestGateway::AuditStream(const Stream& s) const {
  if (!audit_) return;
  // Staging ring buffer: incremental byte/data counters vs a full walk.
  KLINK_CHECK_EQ(s.staged.bytes(), s.staged.AuditRecomputeBytes());
  KLINK_CHECK_EQ(s.staged.data_count(), s.staged.AuditRecomputeDataCount());
  // Scratch run: the pending-commit byte total matches its elements.
  int64_t scratch = 0;
  for (const Event& e : s.scratch) scratch += StagedCost(e);
  KLINK_CHECK_EQ(s.scratch_bytes, scratch);
  // A stalled connection is only declared while over the resume threshold
  // or still undrained; staged volume never exceeds budget by more than
  // the final committed run (credit is checked pre-decode, per frame).
  KLINK_CHECK_GE(s.staged.bytes(), 0);
}

void IngestGateway::RegisterStream(uint32_t stream_id,
                                   const IngestStreamConfig& config) {
  KLINK_CHECK_GT(config.byte_budget, 0);
  KLINK_CHECK(streams_.find(stream_id) == streams_.end());
  streams_[stream_id].config = config;
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

bool IngestGateway::HasCredit(uint32_t stream_id) const {
  const Stream& s = GetStream(stream_id);
  return s.staged.bytes() + s.scratch_bytes < s.config.byte_budget;
}

IngestGateway::SeqDecision IngestGateway::AcceptSeq(uint32_t stream_id,
                                                    uint64_t seq) {
  Stream& s = GetStream(stream_id);
  if (seq == s.last_seq_received + 1) {
    s.last_seq_received = seq;
    return SeqDecision::kAccept;
  }
  if (seq <= s.last_seq_received) {
    ++s.duplicates;
    return SeqDecision::kDuplicate;
  }
  return SeqDecision::kGap;
}

void IngestGateway::Deliver(uint32_t stream_id, const Event& e) {
  Stream& s = GetStream(stream_id);
  s.scratch.push_back(e);
  s.scratch_bytes += StagedCost(e);
}

void IngestGateway::Flush(uint32_t stream_id) {
  Stream& s = GetStream(stream_id);
  if (s.scratch.empty()) return;
  s.staged.PushBatch(s.scratch.data(),
                     static_cast<int64_t>(s.scratch.size()));
  // Clients send in ingestion order, so the last committed element's
  // ingest_time is the stream's arrival watermark.
  s.staged_through =
      std::max(s.staged_through, s.scratch.back().ingest_time);
  s.scratch.clear();
  s.scratch_bytes = 0;
  IngestStreamMetrics& m = metrics_.stream(stream_id);
  m.peak_staged_bytes = std::max(m.peak_staged_bytes, s.staged.bytes());
  AuditStream(s);
}

void IngestGateway::NoteStall(uint32_t stream_id) {
  Stream& s = GetStream(stream_id);
  if (s.stalled) return;
  s.stalled = true;
  s.stall_start_micros = WallMicros();
  ++metrics_.stream(stream_id).backpressure_stalls;
}

bool IngestGateway::TryResume(uint32_t stream_id) {
  Stream& s = GetStream(stream_id);
  if (!s.stalled) return true;
  constexpr double kResumeFraction = 0.5;
  const int64_t resume_below = static_cast<int64_t>(
      static_cast<double>(s.config.byte_budget) * kResumeFraction);
  if (s.staged.bytes() + s.scratch_bytes >= resume_below) return false;
  s.stalled = false;
  metrics_.stream(stream_id).stall_micros +=
      WallMicros() - s.stall_start_micros;
  return true;
}

void IngestGateway::MarkEndOfStream(uint32_t stream_id) {
  GetStream(stream_id).ended = true;
}

void IngestGateway::NoteConnection(uint32_t stream_id, bool open) {
  Stream& s = GetStream(stream_id);
  s.greeted = true;
  s.connections += open ? 1 : -1;
  KLINK_CHECK_GE(s.connections, 0);
}

TimeMicros IngestGateway::PeekIngestTime(uint32_t stream_id) const {
  return GetStream(stream_id).staged.OldestIngestTime();
}

const Event& IngestGateway::Front(uint32_t stream_id) const {
  return GetStream(stream_id).staged.Front();
}

Event IngestGateway::Pop(uint32_t stream_id) {
  Stream& s = GetStream(stream_id);
  Event e = s.staged.Pop();
  // Seqs are contiguous and every accepted element passes through the
  // staging queue exactly once, so the delivered cursor is a simple count.
  ++s.delivered_seq;
  AuditStream(s);
  return e;
}

uint64_t IngestGateway::last_seq_received(uint32_t stream_id) const {
  return GetStream(stream_id).last_seq_received;
}

uint64_t IngestGateway::delivered_seq(uint32_t stream_id) const {
  return GetStream(stream_id).delivered_seq;
}

int64_t IngestGateway::duplicate_events(uint32_t stream_id) const {
  return GetStream(stream_id).duplicates;
}

void IngestGateway::RestoreCursor(uint32_t stream_id, uint64_t seq) {
  Stream& s = GetStream(stream_id);
  KLINK_CHECK(s.staged.empty());  // rewind before serving, not mid-stream
  KLINK_CHECK(s.scratch.empty());
  s.last_seq_received = seq;
  s.delivered_seq = seq;
}

int64_t IngestGateway::staged_bytes(uint32_t stream_id) const {
  return GetStream(stream_id).staged.bytes();
}

int64_t IngestGateway::staged_events(uint32_t stream_id) const {
  return GetStream(stream_id).staged.size();
}

int64_t IngestGateway::peak_staged_bytes(uint32_t stream_id) const {
  auto it = metrics_.streams().find(stream_id);
  return it == metrics_.streams().end() ? 0 : it->second.peak_staged_bytes;
}

bool IngestGateway::end_of_stream(uint32_t stream_id) const {
  return GetStream(stream_id).ended;
}

int64_t IngestGateway::data_events(uint32_t stream_id) const {
  auto it = metrics_.streams().find(stream_id);
  return it == metrics_.streams().end() ? 0 : it->second.data_events;
}

TimeMicros IngestGateway::StagedThrough(uint32_t stream_id) const {
  const Stream& s = GetStream(stream_id);
  if (s.ended) return std::numeric_limits<TimeMicros>::max();
  return s.staged_through;
}

TimeMicros IngestGateway::MinStagedThrough() const {
  if (streams_.empty()) return kNoTime;
  TimeMicros frontier = std::numeric_limits<TimeMicros>::max();
  for (const auto& [id, s] : streams_) {
    if (!s.ended) frontier = std::min(frontier, s.staged_through);
  }
  return frontier;
}

bool IngestGateway::AllStreamsFinished() const {
  if (streams_.empty()) return false;
  for (const auto& [id, s] : streams_) {
    if (!s.ended && (!s.greeted || s.connections > 0)) return false;
  }
  return true;
}

int64_t IngestGateway::TotalStagedEvents() const {
  int64_t total = 0;
  for (const auto& [id, s] : streams_) total += s.staged.size();
  return total;
}

NetworkFeed::NetworkFeed(IngestGateway* gateway,
                         std::vector<uint32_t> stream_ids)
    : gateway_(gateway), streams_(std::move(stream_ids)) {
  KLINK_CHECK(gateway_ != nullptr);
  KLINK_CHECK(!streams_.empty());
  for (uint32_t id : streams_) KLINK_CHECK(gateway_->HasStream(id));
}

void NetworkFeed::PollUpTo(TimeMicros now, int64_t max_bytes,
                           std::vector<FeedElement>* out) {
  // Merge the feed's streams in ingestion order, delivering elements due
  // by `now` under the same byte-budget rule as SyntheticFeed::PollUpTo
  // (always at least one element, stop before exceeding the budget).
  int64_t delivered = 0;
  while (true) {
    int best = -1;
    TimeMicros best_time = 0;
    for (size_t i = 0; i < streams_.size(); ++i) {
      const TimeMicros t = gateway_->PeekIngestTime(streams_[i]);
      if (t == kNoTime || t > now) continue;
      if (best < 0 || t < best_time) {
        best = static_cast<int>(i);
        best_time = t;
      }
    }
    if (best < 0) break;
    const uint32_t stream = streams_[static_cast<size_t>(best)];
    const int64_t sz = gateway_->Front(stream).payload_bytes +
                       StreamQueue::kPerEventOverhead;
    if (delivered > 0 && delivered + sz > max_bytes) break;
    delivered += sz;
    out->push_back(FeedElement{best, gateway_->Pop(stream)});
  }
}

int64_t NetworkFeed::generated_events() const {
  int64_t n = 0;
  for (uint32_t id : streams_) n += gateway_->data_events(id);
  return n;
}

}  // namespace klink
