#include "src/net/ingest_gateway.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/check.h"
#include "src/net/socket.h"
#include "src/runtime/audit.h"

namespace klink {

IngestGateway::IngestGateway() : audit_(AuditEnabledFromEnv()) {}

void IngestGateway::Audit(const Staging& st) const {
  if (!audit_) return;
  // Staging ring buffer: incremental byte/data counters vs a full walk.
  KLINK_CHECK_EQ(st.queue.bytes(), st.queue.AuditRecomputeBytes());
  KLINK_CHECK_EQ(st.queue.data_count(), st.queue.AuditRecomputeDataCount());
  KLINK_CHECK_GE(st.queue.bytes(), 0);
}

int64_t IngestGateway::ResumeBelow(const Staging& st) {
  constexpr double kResumeFraction = 0.5;
  return static_cast<int64_t>(static_cast<double>(st.byte_budget) *
                              kResumeFraction);
}

void IngestGateway::RegisterStream(uint32_t stream_id,
                                   const IngestStreamConfig& config) {
  KLINK_CHECK_GT(config.byte_budget, 0);
  KLINK_CHECK(streams_.find(stream_id) == streams_.end());
  Stream& s = streams_[stream_id];
  s.config_ = config;
  MutexLock lock(&mu_);
  s.slot_ = staging_.size();
  Staging& st = staging_.emplace_back();
  st.id = stream_id;
  st.byte_budget = config.byte_budget;
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

void IngestGateway::CommitRead(Stream* s, int64_t bytes_read,
                               int64_t control_frames) {
  if (s == nullptr && bytes_read == 0 && control_frames == 0) return;
  const bool staged = s != nullptr && !s->scratch_.empty();
  if (staged && audit_) {
    // Scratch run: the pending-commit byte total matches its elements.
    int64_t scratch = 0;
    for (const Event& e : s->scratch_) {
      scratch += e.payload_bytes + StreamQueue::kPerEventOverhead;
    }
    KLINK_CHECK_EQ(s->scratch_bytes_, scratch);
  }
  // Explorer decision point: the engine may drain or read the frontier
  // between a read's decode and its commit.
  SchedulePoint("gateway.commit");
  {
    MutexLock lock(&mu_);
    metrics_.AddBytesRead(bytes_read);
    metrics_.AddControlFrames(control_frames);
    if (s != nullptr) {
      Staging& st = staging_[s->slot_];
      if (staged) {
        st.queue.PushBatch(s->scratch_.data(),
                           static_cast<int64_t>(s->scratch_.size()));
        // Clients send in ingestion order, so the last committed
        // element's ingest_time is the stream's arrival watermark.
        st.staged_through =
            std::max(st.staged_through, s->scratch_.back().ingest_time);
        metrics_.AddFrames(st.id, static_cast<int64_t>(s->scratch_.size()),
                           s->scratch_wire_bytes_, s->scratch_data_events_);
        IngestStreamMetrics& m = metrics_.stream(st.id);
        m.peak_staged_bytes = std::max(m.peak_staged_bytes, st.queue.bytes());
        Audit(st);
        ++version_;
      }
      s->staged_bytes_seen_ = st.queue.bytes();
    }
  }
  if (!staged) return;
  changed_cv_.NotifyAll();
  s->scratch_.clear();
  s->scratch_bytes_ = 0;
  s->scratch_wire_bytes_ = 0;
  s->scratch_data_events_ = 0;
}

void IngestGateway::Flush(uint32_t stream_id) {
  CommitRead(&GetStream(stream_id), 0, 0);
}

void IngestGateway::NoteStall(uint32_t stream_id) {
  const size_t slot = SlotOf(stream_id);
  MutexLock lock(&mu_);
  Staging& st = staging_[slot];
  if (st.stalled) return;
  st.stalled = true;
  st.resume_signaled = false;
  st.stall_start_micros = WallMicros();
  ++metrics_.stream(stream_id).backpressure_stalls;
}

bool IngestGateway::TryResume(uint32_t stream_id) {
  Stream& s = GetStream(stream_id);
  MutexLock lock(&mu_);
  Staging& st = staging_[s.slot_];
  s.staged_bytes_seen_ = st.queue.bytes();
  if (!st.stalled) return true;
  if (st.queue.bytes() + s.scratch_bytes_ >= ResumeBelow(st)) return false;
  st.stalled = false;
  metrics_.stream(stream_id).stall_micros +=
      WallMicros() - st.stall_start_micros;
  return true;
}

void IngestGateway::MarkEndOfStream(uint32_t stream_id) {
  const size_t slot = SlotOf(stream_id);
  {
    MutexLock lock(&mu_);
    staging_[slot].ended = true;
    ++version_;
  }
  changed_cv_.NotifyAll();
}

void IngestGateway::NoteConnection(uint32_t stream_id, bool open) {
  const size_t slot = SlotOf(stream_id);
  {
    MutexLock lock(&mu_);
    Staging& st = staging_[slot];
    st.greeted = true;
    st.connections += open ? 1 : -1;
    KLINK_CHECK_GE(st.connections, 0);
    ++version_;
  }
  changed_cv_.NotifyAll();
}

void IngestGateway::NoteAccepted() {
  MutexLock lock(&mu_);
  metrics_.AddConnection();
  ++open_connections_;
}

void IngestGateway::NoteClosed() {
  {
    MutexLock lock(&mu_);
    metrics_.AddDisconnect();
    --open_connections_;
    ++version_;
  }
  changed_cv_.NotifyAll();
}

void IngestGateway::NoteIdleTimeout() {
  MutexLock lock(&mu_);
  metrics_.AddIdleTimeout();
}

void IngestGateway::NoteMalformedFrame() {
  MutexLock lock(&mu_);
  metrics_.AddMalformedFrame();
}

void IngestGateway::QueueAck(uint32_t stream_id, uint64_t epoch,
                             uint64_t durable_seq) {
  SchedulePoint("gateway.ack-enqueue");
  MutexLock lock(&mu_);
  acks_.push_back(QueuedAck{stream_id, epoch, durable_seq});
}

void IngestGateway::TakeAcks(std::vector<QueuedAck>* out) {
  out->clear();
  SchedulePoint("gateway.ack-drain");
  MutexLock lock(&mu_);
  out->swap(acks_);
}

bool IngestGateway::RequestAttach(uint32_t stream_id) {
  SchedulePoint("gateway.attach-request");
  MutexLock lock(&mu_);
  if (attach_closed_) return false;
  KLINK_CHECK_LT(attach_request_, 0);  // one decoding thread
  attach_request_ = stream_id;
  attach_answer_ = -1;
  ++version_;
  changed_cv_.NotifyAll();
  while (attach_answer_ < 0 && !attach_closed_) changed_cv_.Wait(mu_);
  const bool accepted = attach_answer_ == 1;
  attach_request_ = -1;
  attach_answer_ = -1;
  return accepted;
}

void IngestGateway::AnswerAttach(
    const std::function<bool(uint32_t)>& attach) {
  int64_t stream_id = -1;
  {
    MutexLock lock(&mu_);
    if (attach_answer_ < 0) stream_id = attach_request_;
  }
  if (stream_id < 0) return;
  // The hook deploys a query and registers its streams (taking the lock
  // itself) while the decoding thread waits for the answer.
  const bool accepted = attach(static_cast<uint32_t>(stream_id));
  SchedulePoint("gateway.attach-answer");
  {
    MutexLock lock(&mu_);
    attach_answer_ = accepted ? 1 : 0;
  }
  changed_cv_.NotifyAll();
}

void IngestGateway::CloseAttach() {
  {
    MutexLock lock(&mu_);
    attach_closed_ = true;
  }
  changed_cv_.NotifyAll();
}

IngestGateway::Arrivals IngestGateway::ReadArrivals() const {
  // Explorer decision point: the decoding thread may commit between two
  // frontier reads of the engine thread.
  SchedulePoint("gateway.frontier-read");
  MutexLock lock(&mu_);
  Arrivals a;
  a.frontier = AllFinished(staging_) ? std::numeric_limits<TimeMicros>::max()
                                     : MinStagedThroughOf(staging_);
  for (const Staging& st : staging_) a.staged_events += st.queue.size();
  a.connections = open_connections_;
  a.attach_requested = attach_request_ >= 0 && attach_answer_ < 0;
  a.version = version_;
  return a;
}

void IngestGateway::AwaitChange(uint64_t seen, DurationMicros timeout) const {
  MutexLock lock(&mu_);
  if (version_ == seen) changed_cv_.WaitFor(mu_, timeout);
}

TimeMicros IngestGateway::PeekIngestTime(uint32_t stream_id) const {
  const size_t slot = SlotOf(stream_id);
  MutexLock lock(&mu_);
  return staging_[slot].queue.OldestIngestTime();
}

Event IngestGateway::Pop(uint32_t stream_id) {
  const size_t slot = SlotOf(stream_id);
  MutexLock lock(&mu_);
  Staging& st = staging_[slot];
  Event e = st.queue.Pop();
  ++st.delivered_seq;
  Audit(st);
  return e;
}

uint64_t IngestGateway::last_seq_received(uint32_t stream_id) const {
  return GetStream(stream_id).last_seq_received_;
}

uint64_t IngestGateway::delivered_seq(uint32_t stream_id) const {
  const size_t slot = SlotOf(stream_id);
  MutexLock lock(&mu_);
  return staging_[slot].delivered_seq;
}

int64_t IngestGateway::duplicate_events(uint32_t stream_id) const {
  return GetStream(stream_id).duplicates_;
}

void IngestGateway::RestoreCursor(uint32_t stream_id, uint64_t seq) {
  Stream& s = GetStream(stream_id);
  KLINK_CHECK(s.scratch_.empty());  // rewind before serving, not mid-stream
  s.last_seq_received_ = seq;
  MutexLock lock(&mu_);
  Staging& st = staging_[s.slot_];
  KLINK_CHECK(st.queue.empty());
  st.delivered_seq = seq;
}

int64_t IngestGateway::staged_bytes(uint32_t stream_id) const {
  const size_t slot = SlotOf(stream_id);
  MutexLock lock(&mu_);
  return staging_[slot].queue.bytes();
}

int64_t IngestGateway::staged_events(uint32_t stream_id) const {
  const size_t slot = SlotOf(stream_id);
  MutexLock lock(&mu_);
  return staging_[slot].queue.size();
}

int64_t IngestGateway::peak_staged_bytes(uint32_t stream_id) const {
  MutexLock lock(&mu_);
  auto it = metrics_.streams().find(stream_id);
  return it == metrics_.streams().end() ? 0 : it->second.peak_staged_bytes;
}

bool IngestGateway::end_of_stream(uint32_t stream_id) const {
  const size_t slot = SlotOf(stream_id);
  MutexLock lock(&mu_);
  return staging_[slot].ended;
}

int64_t IngestGateway::data_events(uint32_t stream_id) const {
  MutexLock lock(&mu_);
  auto it = metrics_.streams().find(stream_id);
  return it == metrics_.streams().end() ? 0 : it->second.data_events;
}

int IngestGateway::open_connections() const {
  MutexLock lock(&mu_);
  return open_connections_;
}

TimeMicros IngestGateway::StagedThrough(uint32_t stream_id) const {
  const size_t slot = SlotOf(stream_id);
  MutexLock lock(&mu_);
  const Staging& st = staging_[slot];
  if (st.ended) return std::numeric_limits<TimeMicros>::max();
  return st.staged_through;
}

TimeMicros IngestGateway::MinStagedThrough() const {
  MutexLock lock(&mu_);
  return MinStagedThroughOf(staging_);
}

TimeMicros IngestGateway::MinStagedThroughOf(
    const std::deque<Staging>& staging) {
  if (staging.empty()) return kNoTime;
  TimeMicros frontier = std::numeric_limits<TimeMicros>::max();
  for (const Staging& st : staging) {
    if (!st.ended) frontier = std::min(frontier, st.staged_through);
  }
  return frontier;
}

bool IngestGateway::AllStreamsFinished() const {
  MutexLock lock(&mu_);
  return AllFinished(staging_);
}

bool IngestGateway::AllFinished(const std::deque<Staging>& staging) {
  if (staging.empty()) return false;
  for (const Staging& st : staging) {
    if (!st.ended && (!st.greeted || st.connections > 0)) return false;
  }
  return true;
}

int64_t IngestGateway::TotalStagedEvents() const {
  MutexLock lock(&mu_);
  int64_t total = 0;
  for (const Staging& st : staging_) total += st.queue.size();
  return total;
}

IngestMetrics IngestGateway::metrics() const {
  MutexLock lock(&mu_);
  return metrics_;
}

void IngestGateway::PollStreams(const std::vector<size_t>& slots,
                                TimeMicros now, int64_t max_bytes,
                                std::vector<EventFeed::FeedElement>* out) {
  // Merge the feed's streams in ingestion order, delivering elements due
  // by `now` under the same byte-budget rule as SyntheticFeed::PollUpTo
  // (always at least one element, stop before exceeding the budget).
  // Ties go to the lowest stream, so the stream with the oldest due front
  // keeps the lead for a run: through every element due before the other
  // streams' fronts, or at the same time as the fronts of higher streams.
  // A one-stream feed takes its whole due prefix in one run.
  bool resume = false;
  {
    MutexLock lock(&mu_);
    int64_t delivered = 0;
    bool full = false;
    while (!full) {
      size_t best = slots.size();
      TimeMicros best_time = kNoTime;
      for (size_t i = 0; i < slots.size(); ++i) {
        const TimeMicros t = staging_[slots[i]].queue.OldestIngestTime();
        if (t == kNoTime || t > now) continue;
        if (best == slots.size() || t < best_time) {
          best = i;
          best_time = t;
        }
      }
      if (best == slots.size()) break;
      TimeMicros through = now;
      for (size_t i = 0; i < slots.size(); ++i) {
        const TimeMicros t = staging_[slots[i]].queue.OldestIngestTime();
        if (i == best || t == kNoTime) continue;
        through = std::min(through, i < best ? t - 1 : t);
      }
      const int source = static_cast<int>(best);
      Staging& st = staging_[slots[best]];
      // Seqs are contiguous and every accepted element passes through the
      // staging queue exactly once, so the delivered cursor is a count.
      st.delivered_seq += static_cast<uint64_t>(
          st.queue.PopWhile([&](const Event& e) {
            if (e.ingest_time > through) return false;
            const int64_t sz =
                e.payload_bytes + StreamQueue::kPerEventOverhead;
            if (delivered > 0 && delivered + sz > max_bytes) {
              full = true;
              return false;
            }
            delivered += sz;
            out->push_back(EventFeed::FeedElement{source, e});
            return true;
          }));
      Audit(st);
      if (st.stalled && !st.resume_signaled &&
          st.queue.bytes() < ResumeBelow(st)) {
        st.resume_signaled = true;
        resume = true;
      }
    }
  }
  if (resume && resume_hook_ != nullptr) resume_hook_();
}

NetworkFeed::NetworkFeed(IngestGateway* gateway,
                         std::vector<uint32_t> stream_ids)
    : gateway_(gateway), stream_ids_(std::move(stream_ids)) {
  KLINK_CHECK(gateway_ != nullptr);
  KLINK_CHECK(!stream_ids_.empty());
  for (uint32_t id : stream_ids_) slots_.push_back(gateway_->SlotOf(id));
}

void NetworkFeed::PollUpTo(TimeMicros now, int64_t max_bytes,
                           std::vector<FeedElement>* out) {
  gateway_->PollStreams(slots_, now, max_bytes, out);
}

int64_t NetworkFeed::generated_events() const {
  int64_t n = 0;
  for (uint32_t id : stream_ids_) n += gateway_->data_events(id);
  return n;
}

}  // namespace klink
