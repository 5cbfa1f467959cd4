#include "src/operators/operator.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace klink {

Operator::Operator(std::string name, double cost_micros, int num_inputs)
    : name_(std::move(name)), cost_micros_(cost_micros) {
  KLINK_CHECK_GE(num_inputs, 1);
  KLINK_CHECK_GE(cost_micros, 0.0);
  inputs_.resize(static_cast<size_t>(num_inputs));
  last_watermark_.assign(static_cast<size_t>(num_inputs), kNoTime);
  last_barrier_epoch_.assign(static_cast<size_t>(num_inputs), 0);
}

Operator::~Operator() = default;

StreamQueue& Operator::input(int stream) {
  KLINK_CHECK(stream >= 0 && stream < num_inputs());
  return inputs_[static_cast<size_t>(stream)];
}

const StreamQueue& Operator::input(int stream) const {
  KLINK_CHECK(stream >= 0 && stream < num_inputs());
  return inputs_[static_cast<size_t>(stream)];
}

double Operator::selectivity() const {
  // Wait for a minimally meaningful sample before trusting measurements.
  constexpr int64_t kMinSample = 32;
  if (processed_data_ < kMinSample) return selectivity_hint_;
  return static_cast<double>(emitted_data_) /
         static_cast<double>(processed_data_);
}

int64_t Operator::QueuedEvents() const {
  int64_t total = 0;
  for (const StreamQueue& q : inputs_) total += q.size();
  return total;
}

int64_t Operator::QueuedBytes() const {
  int64_t total = 0;
  for (const StreamQueue& q : inputs_) total += q.bytes();
  return total;
}

TimeMicros Operator::last_watermark(int stream) const {
  KLINK_CHECK(stream >= 0 && stream < num_inputs());
  return last_watermark_[static_cast<size_t>(stream)];
}

TimeMicros Operator::MinWatermark() const {
  TimeMicros min_wm = last_watermark_[0];
  for (TimeMicros wm : last_watermark_) {
    if (wm == kNoTime) return kNoTime;
    min_wm = std::min(min_wm, wm);
  }
  return min_wm;
}

void Operator::Process(const Event& e, TimeMicros now, Emitter& out) {
  switch (e.kind) {
    case EventKind::kData:
      ++processed_data_;
      OnData(e, now, out);
      return;
    case EventKind::kLatencyMarker:
      OnLatencyMarker(e, now, out);
      return;
    case EventKind::kRetraction:
      ++processed_data_;
      OnRetraction(e, now, out);
      return;
    case EventKind::kUpdate:
      ++processed_data_;
      OnUpdate(e, now, out);
      return;
    case EventKind::kWatermark: {
      const int stream = e.stream;
      KLINK_CHECK(stream >= 0 && stream < num_inputs());
      auto& slot = last_watermark_[static_cast<size_t>(stream)];
      // SPEs drop out-of-order (late) watermarks (Sec. 2.2).
      if (slot != kNoTime && e.event_time <= slot) return;
      slot = e.event_time;
      OnStreamWatermark(e, stream);
      const TimeMicros min_wm = MinWatermark();
      // Forward only when the minimum across inputs advances (Sec. 3.3).
      if (min_wm == kNoTime || min_wm <= forwarded_min_watermark_) return;
      forward_swm_override_ = false;
      suppress_forward_ = false;
      OnWatermark(e, min_wm, now, out);
      forwarded_min_watermark_ = min_wm;
      if (suppress_forward_) return;
      ++forwarded_watermarks_;
      Event fwd = MakeWatermark(min_wm, e.ingest_time);
      fwd.swm = forward_swm_override_ ? forward_swm_value_ : e.swm;
      out.Emit(fwd);
      return;
    }
    case EventKind::kCheckpointBarrier: {
      const int stream = e.stream;
      KLINK_CHECK(stream >= 0 && stream < num_inputs());
      const uint64_t epoch = e.barrier_epoch();
      auto& slot = last_barrier_epoch_[static_cast<size_t>(stream)];
      // Barrier monotonicity: the coordinator injects epochs in order and
      // queues are FIFO, so a stale or repeated barrier is a corruption.
      KLINK_CHECK_GT(epoch, slot);
      slot = epoch;
      uint64_t min_epoch = last_barrier_epoch_[0];
      for (const uint64_t be : last_barrier_epoch_) {
        min_epoch = std::min(min_epoch, be);
      }
      // Aligned exactly when the last input reaches this epoch: all
      // pre-barrier elements are in state, no post-barrier one is.
      if (min_epoch != epoch) return;
      if (barrier_observer_ != nullptr) {
        barrier_observer_->OnBarrierAligned(*this, epoch);
      }
      out.Emit(MakeCheckpointBarrier(epoch, e.ingest_time));
      return;
    }
  }
}

void Operator::ProcessBatch(const Event* events, int64_t n, BatchClock& clock,
                            Emitter& out) {
  int64_t i = 0;
  while (i < n) {
    if (!events[i].is_data()) {
      Process(events[i], clock.Next(), out);
      ++i;
      continue;
    }
    int64_t j = i + 1;
    while (j < n && events[j].is_data()) ++j;
    processed_data_ += j - i;
    OnDataRun(events + i, j - i, clock, out);
    i = j;
  }
}

void Operator::OnData(const Event& e, TimeMicros /*now*/, Emitter& out) {
  EmitData(e, out);
}

void Operator::OnDataRun(const Event* events, int64_t n, BatchClock& clock,
                         Emitter& out) {
  for (int64_t i = 0; i < n; ++i) OnData(events[i], clock.Next(), out);
}

void Operator::EmitData(const Event& e, Emitter& out) {
  ++emitted_data_;
  out.Emit(e);
}

void Operator::OnWatermark(const Event& /*incoming*/,
                           TimeMicros /*min_watermark*/, TimeMicros /*now*/,
                           Emitter& /*out*/) {}

void Operator::OnLatencyMarker(const Event& e, TimeMicros /*now*/,
                               Emitter& out) {
  out.Emit(e);
}

void Operator::OnRetraction(const Event& e, TimeMicros /*now*/, Emitter& out) {
  EmitData(e, out);
}

void Operator::OnUpdate(const Event& e, TimeMicros /*now*/, Emitter& out) {
  EmitData(e, out);
}

void Operator::OnStreamWatermark(const Event& /*incoming*/, int /*stream*/) {}

void Operator::SerializeState(StateWriter& /*w*/) const {}

void Operator::RestoreState(StateReader& /*r*/) {}

uint64_t Operator::last_barrier_epoch(int stream) const {
  KLINK_CHECK(stream >= 0 && stream < num_inputs());
  return last_barrier_epoch_[static_cast<size_t>(stream)];
}

void Operator::Serialize(StateWriter& w) const {
  w.PutU32(static_cast<uint32_t>(num_inputs()));
  for (const TimeMicros wm : last_watermark_) w.PutI64(wm);
  w.PutI64(forwarded_min_watermark_);
  w.PutI64(forwarded_watermarks_);
  w.PutI64(processed_data_);
  w.PutI64(emitted_data_);
  SerializeState(w);
}

void Operator::Restore(StateReader& r) {
  const uint32_t n = r.GetU32();
  KLINK_CHECK(r.ok());
  KLINK_CHECK_EQ(static_cast<int>(n), num_inputs());
  for (TimeMicros& wm : last_watermark_) wm = r.GetI64();
  forwarded_min_watermark_ = r.GetI64();
  forwarded_watermarks_ = r.GetI64();
  processed_data_ = r.GetI64();
  emitted_data_ = r.GetI64();
  KLINK_CHECK(r.ok());
  RestoreState(r);
}

}  // namespace klink
