#include "src/operators/exchange_operator.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/fault_injection.h"

namespace klink {

namespace {

uint64_t ValueBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Merge rank of a keyed element's kind: a retraction always precedes the
/// update that replaces it, and both precede a fresh data result that ties
/// on (event_time, key) — the sink applies remove-before-insert, so this
/// order keeps its converging-result fold canonical across shard counts.
int KindRank(EventKind kind) {
  switch (kind) {
    case EventKind::kRetraction:
      return 0;
    case EventKind::kUpdate:
      return 1;
    case EventKind::kData:
      return 2;
    case EventKind::kWatermark:
    case EventKind::kLatencyMarker:
    case EventKind::kCheckpointBarrier:
      break;  // controls are never buffered in merge segments
  }
  return 3;
}

/// Canonical flush order: the fields the sink's results hash folds, in hash
/// order, with the correction rank breaking (event_time, key) ties. Events
/// that tie on all four are hash-indistinguishable, so their relative order
/// is irrelevant.
bool CanonicalLess(const Event& a, const Event& b) {
  if (a.event_time != b.event_time) return a.event_time < b.event_time;
  if (a.key != b.key) return a.key < b.key;
  if (a.kind != b.kind) return KindRank(a.kind) < KindRank(b.kind);
  return ValueBits(a.value) < ValueBits(b.value);
}

void PutEvent(StateWriter& w, const Event& e) {
  w.PutU8(static_cast<uint8_t>(e.kind));
  w.PutU32(static_cast<uint32_t>(e.stream));
  w.PutI64(e.event_time);
  w.PutI64(e.ingest_time);
  w.PutU64(e.key);
  w.PutDouble(e.value);
  w.PutU32(e.payload_bytes);
  w.PutBool(e.swm);
}

Event GetEvent(StateReader& r) {
  Event e;
  e.kind = static_cast<EventKind>(r.GetU8());
  e.stream = static_cast<int32_t>(r.GetU32());
  e.event_time = r.GetI64();
  e.ingest_time = r.GetI64();
  e.key = r.GetU64();
  e.value = r.GetDouble();
  e.payload_bytes = r.GetU32();
  e.swm = r.GetBool();
  return e;
}

}  // namespace

/// ---- PartitionExchangeOperator ---------------------------------------

PartitionExchangeOperator::PartitionExchangeOperator(std::string name,
                                                     double cost_micros,
                                                     int active_shards,
                                                     int max_shards)
    : Operator(std::move(name), cost_micros, /*num_inputs=*/1),
      active_shards_(active_shards),
      max_shards_(max_shards) {
  KLINK_CHECK_GE(active_shards, 1);
  KLINK_CHECK_GE(max_shards, active_shards);
}

void PartitionExchangeOperator::SetTargets(std::vector<StreamQueue*> targets) {
  KLINK_CHECK_EQ(static_cast<int>(targets.size()), max_shards_);
  for (const StreamQueue* q : targets) KLINK_CHECK(q != nullptr);
  targets_ = std::move(targets);
}

void PartitionExchangeOperator::ArmReshard(int new_count,
                                           uint64_t pause_at_epoch) {
  KLINK_CHECK_GE(new_count, 1);
  KLINK_CHECK_GE(max_shards_, new_count);
  KLINK_CHECK(!paused_);
  KLINK_CHECK_EQ(pending_new_count_, 0);
  KLINK_CHECK_GT(pause_at_epoch, last_broadcast_epoch_);
  pending_new_count_ = new_count;
  pause_at_epoch_ = pause_at_epoch;
}

void PartitionExchangeOperator::CompleteReshard() {
  KLINK_CHECK(paused_);
  KLINK_CHECK_GT(pending_new_count_, 0);
  active_shards_ = pending_new_count_;
  pending_new_count_ = 0;
  pause_at_epoch_ = 0;
  paused_ = false;
  // Replay held elements through normal routing, in hold order.
  std::vector<Event> replay;
  replay.swap(hold_);
  for (const Event& e : replay) Route(e);
}

void PartitionExchangeOperator::Route(const Event& e) {
  KLINK_CHECK(!targets_.empty());
  if (paused_) {
    hold_.push_back(e);
    return;
  }
  if (e.is_keyed_element()) {
    targets_[static_cast<size_t>(ShardOf(e.key, active_shards_))]->Push(e);
    return;
  }
  // Controls are broadcast to every shard queue, inactive ones included,
  // so watermark merging and barrier alignment never wait on a shard and
  // an inactive shard's bookkeeping is live when a re-shard activates it.
  for (StreamQueue* q : targets_) q->Push(e);
  if (e.is_barrier()) {
    last_broadcast_epoch_ = e.barrier_epoch();
    if (pending_new_count_ != 0 && e.barrier_epoch() >= pause_at_epoch_) {
      paused_ = true;
    }
  }
}

void PartitionExchangeOperator::OnDataRun(const Event* events, int64_t n,
                                          BatchClock& clock, Emitter& out) {
  clock.Advance(n);
  EmitDataRun(events, n, out);
}

void PartitionExchangeOperator::SerializeState(StateWriter& w) const {
  // The hold buffer is deliberately NOT serialized. SerializeState runs at
  // barrier alignment, before the aligning barrier is routed — so while
  // paused, every held element precedes that barrier in hold order and
  // CompleteReshard replays it downstream *before* the barrier. The shard
  // and merge snapshots of this epoch therefore already contain the held
  // elements (the base bookkeeping above counts them as emitted, too);
  // they are downstream channel state, and checkpointing them here would
  // deliver them twice after a restore — double-applied watermarks skew
  // the merge's segment counters and strand data in flushed segments.
  w.PutU32(static_cast<uint32_t>(active_shards_));
  w.PutU32(static_cast<uint32_t>(pending_new_count_));
  w.PutU64(pause_at_epoch_);
  w.PutBool(paused_);
  w.PutU64(last_broadcast_epoch_);
  if (TestFaultEnabled(TestFault::kCheckpointHoldBuffer)) {
    // MUTATION (schedule_explorer_test): re-inject the PR-8 bug the comment
    // above explains — checkpoint the hold buffer anyway. A restore then
    // replays held elements whose effects the downstream snapshots already
    // contain, and the explorer's hash oracle must catch the double-apply.
    w.PutU64(hold_.size());
    for (const Event& e : hold_) PutEvent(w, e);
  }
}

void PartitionExchangeOperator::RestoreState(StateReader& r) {
  KLINK_CHECK(hold_.empty());
  active_shards_ = static_cast<int>(r.GetU32());
  pending_new_count_ = static_cast<int>(r.GetU32());
  pause_at_epoch_ = r.GetU64();
  paused_ = r.GetBool();
  last_broadcast_epoch_ = r.GetU64();
  if (TestFaultEnabled(TestFault::kCheckpointHoldBuffer)) {
    const uint64_t n = r.GetU64();
    KLINK_CHECK(r.ok());
    for (uint64_t i = 0; i < n; ++i) hold_.push_back(GetEvent(r));
  }
  KLINK_CHECK(r.ok());
  KLINK_CHECK_GE(active_shards_, 1);
  KLINK_CHECK_GE(max_shards_, active_shards_);
}

/// ---- MergeExchangeOperator -------------------------------------------

MergeExchangeOperator::MergeExchangeOperator(std::string name,
                                             double cost_micros,
                                             int num_shards)
    : Operator(std::move(name), cost_micros, num_shards),
      seen_watermarks_(static_cast<size_t>(num_shards), 0),
      seen_markers_(static_cast<size_t>(num_shards), 0) {
  KLINK_CHECK_GE(num_shards, 1);
}

void MergeExchangeOperator::BufferElement(const Event& e) {
  KLINK_CHECK(e.stream >= 0 && e.stream < num_inputs());
  Segment& seg = buffers_[seen_watermarks_[static_cast<size_t>(e.stream)]];
  seg.events.push_back(e);
  const int64_t bytes =
      static_cast<int64_t>(e.payload_bytes) + kPerBufferedOverhead;
  seg.bytes += bytes;
  ++buffered_events_;
  AddStateBytes(bytes);
}

void MergeExchangeOperator::OnData(const Event& e, TimeMicros /*now*/,
                                   Emitter& /*out*/) {
  BufferElement(e);
}

void MergeExchangeOperator::OnRetraction(const Event& e, TimeMicros /*now*/,
                                         Emitter& /*out*/) {
  BufferElement(e);
}

void MergeExchangeOperator::OnUpdate(const Event& e, TimeMicros /*now*/,
                                     Emitter& /*out*/) {
  BufferElement(e);
}

void MergeExchangeOperator::OnStreamWatermark(const Event& incoming,
                                              int stream) {
  auto& count = seen_watermarks_[static_cast<size_t>(stream)];
  // This watermark closes the segment the input was filling; OR the SWM
  // flags so the merged watermark sweeps iff any shard's did.
  if (incoming.swm) buffers_[count].swm = true;
  ++count;
}

void MergeExchangeOperator::OnWatermark(const Event& /*incoming*/,
                                        TimeMicros /*min_watermark*/,
                                        TimeMicros /*now*/, Emitter& out) {
  // The minimum across inputs advances exactly when every shard has
  // delivered the watermark closing segment `flushed_` (identical control
  // broadcast + FIFO queues), so that segment is complete: flush it in
  // canonical order and let the base forward the merged watermark after.
  bool swm = false;
  const auto it = buffers_.find(flushed_);
  if (it != buffers_.end()) {
    Segment& seg = it->second;
    swm = seg.swm;
    if (!seg.events.empty()) {
      flush_scratch_.swap(seg.events);
      std::sort(flush_scratch_.begin(), flush_scratch_.end(), CanonicalLess);
      EmitDataRun(flush_scratch_.data(),
                  static_cast<int64_t>(flush_scratch_.size()), out);
      buffered_events_ -= static_cast<int64_t>(flush_scratch_.size());
      flush_scratch_.clear();
    }
    AddStateBytes(-seg.bytes);
    buffers_.erase(it);
  }
  ++flushed_;
  SetForwardSwm(swm);
}

void MergeExchangeOperator::OnLatencyMarker(const Event& e, TimeMicros /*now*/,
                                            Emitter& out) {
  KLINK_CHECK(e.stream >= 0 && e.stream < num_inputs());
  ++seen_markers_[static_cast<size_t>(e.stream)];
  const int64_t min =
      *std::min_element(seen_markers_.begin(), seen_markers_.end());
  // Forward one copy when the slowest shard delivers its (identical) copy.
  if (min > forwarded_markers_) {
    ++forwarded_markers_;
    out.Emit(e);
  }
}

void MergeExchangeOperator::SerializeState(StateWriter& w) const {
  for (const int64_t c : seen_watermarks_) w.PutI64(c);
  for (const int64_t c : seen_markers_) w.PutI64(c);
  w.PutI64(forwarded_markers_);
  w.PutI64(flushed_);
  w.PutU64(static_cast<uint64_t>(buffers_.size()));
  for (const auto& [segment, seg] : buffers_) {
    w.PutI64(segment);
    w.PutBool(seg.swm);
    w.PutI64(seg.bytes);
    w.PutU64(static_cast<uint64_t>(seg.events.size()));
    for (const Event& e : seg.events) PutEvent(w, e);
  }
}

void MergeExchangeOperator::RestoreState(StateReader& r) {
  KLINK_CHECK(buffers_.empty());
  for (int64_t& c : seen_watermarks_) c = r.GetI64();
  for (int64_t& c : seen_markers_) c = r.GetI64();
  forwarded_markers_ = r.GetI64();
  flushed_ = r.GetI64();
  const uint64_t num_segments = r.GetU64();
  KLINK_CHECK(r.ok());
  for (uint64_t s = 0; s < num_segments; ++s) {
    const int64_t segment = r.GetI64();
    Segment& seg = buffers_[segment];
    seg.swm = r.GetBool();
    seg.bytes = r.GetI64();
    const uint64_t n = r.GetU64();
    KLINK_CHECK(r.ok());
    seg.events.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) seg.events.push_back(GetEvent(r));
    buffered_events_ += static_cast<int64_t>(n);
    AddStateBytes(seg.bytes);
  }
  KLINK_CHECK(r.ok());
}

}  // namespace klink
