#ifndef KLINK_RUNTIME_METRICS_H_
#define KLINK_RUNTIME_METRICS_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/types.h"

namespace klink {

class Query;
class SinkOperator;

/// Per-query late-data accounting (allowed lateness, src/window/lateness.h):
/// operator-side counters aggregated over the query's windowed operators
/// plus sink-side correction bookkeeping. Collected on demand by
/// CollectQueryLateMetrics from the operators' cumulative counters.
struct QueryLateMetrics {
  /// Late data events folded into a retained pane/session.
  int64_t late_accepted = 0;
  /// Late data events past every candidate's retention horizon (dropped).
  int64_t late_dropped_beyond_horizon = 0;
  /// Retraction elements emitted by windowed operators.
  int64_t retractions_emitted = 0;
  /// Update elements emitted by windowed operators.
  int64_t updates_emitted = 0;
  /// Retraction elements absorbed by the sink's converging result log.
  int64_t retractions_received = 0;
  /// Sink retractions with no matching live entry (e.g. the target was
  /// emitted before a warm-up ResetStats); should be 0 in steady state.
  int64_t unmatched_retractions = 0;

  QueryLateMetrics& operator+=(const QueryLateMetrics& o) {
    late_accepted += o.late_accepted;
    late_dropped_beyond_horizon += o.late_dropped_beyond_horizon;
    retractions_emitted += o.retractions_emitted;
    updates_emitted += o.updates_emitted;
    retractions_received += o.retractions_received;
    unmatched_retractions += o.unmatched_retractions;
    return *this;
  }
};

/// Walks the query's operators (windowed aggregates, session windows) and
/// its sink, summing their late-event counters.
QueryLateMetrics CollectQueryLateMetrics(const Query& query);

/// Merges one latency histogram of every query's sink, in `queries` order:
/// `which` is &SinkOperator::swm_latency (output latency) or
/// &SinkOperator::marker_latency. Both engines' aggregates fold here.
Histogram MergeSinkLatency(const std::vector<const Query*>& queries,
                           const Histogram& (SinkOperator::*which)() const);

/// One point of the resource-utilization time series (paper Fig. 8),
/// sampled every 200 ms of virtual time, as the paper samples.
struct ResourceSample {
  TimeMicros time = 0;
  int64_t memory_bytes = 0;
  /// Fraction of core time spent processing events in the sample window.
  double cpu_utilization = 0.0;
  /// Operator-events processed per second in the sample window.
  double throughput_eps = 0.0;
};

/// Engine-wide counters and series accumulated during a run.
class EngineMetrics {
 public:
  /// ---- updated by the engine ----------------------------------------
  void AddProcessed(int64_t n) { processed_events_ += n; }
  void AddIngested(int64_t n) { ingested_events_ += n; }
  void AddCoreBusy(double micros) { core_busy_micros_ += micros; }
  void AddSchedulerCost(double micros) { scheduler_micros_ += micros; }
  void AddSample(const ResourceSample& s) { samples_.push_back(s); }

  /// ---- reporting ------------------------------------------------------
  /// Total operator-events processed (every operator invocation counts,
  /// matching the paper's aggregate throughput metric, Sec. 6.1.2).
  int64_t processed_events() const { return processed_events_; }
  /// Data events delivered into source queues.
  int64_t ingested_events() const { return ingested_events_; }

  double core_busy_micros() const { return core_busy_micros_; }
  double scheduler_micros() const { return scheduler_micros_; }

  /// Aggregate operator-events per second over `duration`.
  double ThroughputEps(DurationMicros duration) const {
    return duration <= 0 ? 0.0
                         : static_cast<double>(processed_events_) /
                               MicrosToSeconds(duration);
  }

  const std::vector<ResourceSample>& samples() const { return samples_; }

 private:
  int64_t processed_events_ = 0;
  int64_t ingested_events_ = 0;
  double core_busy_micros_ = 0.0;
  double scheduler_micros_ = 0.0;
  std::vector<ResourceSample> samples_;
};

/// Per-ingest-stream counters maintained by the network ingest gateway
/// (src/net/ingest_gateway.h). Stall time is wall-clock time the stream's
/// connection spent paused by credit-based backpressure.
struct IngestStreamMetrics {
  int64_t frames = 0;
  int64_t bytes = 0;  // wire bytes of decoded element frames
  int64_t data_events = 0;
  int64_t backpressure_stalls = 0;
  int64_t stall_micros = 0;
  int64_t peak_staged_bytes = 0;
};

/// Counters for the TCP ingest path: connections, frames, bytes, protocol
/// errors, and per-stream backpressure behaviour. Owned by the
/// IngestGateway; printed by harness/reporter's PrintIngestMetrics.
class IngestMetrics {
 public:
  /// ---- updated by the ingest server / gateway ------------------------
  void AddConnection() { ++connections_accepted_; }
  void AddDisconnect() { ++connections_closed_; }
  void AddIdleTimeout() { ++idle_timeouts_; }
  void AddMalformedFrame() { ++malformed_frames_; }
  void AddBytesRead(int64_t n) { bytes_read_ += n; }
  /// Element frames staged on one stream, counted once per commit.
  void AddFrames(uint32_t stream_id, int64_t frames, int64_t wire_bytes,
                 int64_t data_events) {
    frames_decoded_ += frames;
    IngestStreamMetrics& s = streams_[stream_id];
    s.frames += frames;
    s.bytes += wire_bytes;
    s.data_events += data_events;
  }
  void AddControlFrames(int64_t n) { frames_decoded_ += n; }
  IngestStreamMetrics& stream(uint32_t stream_id) {
    return streams_[stream_id];
  }

  /// ---- reporting -----------------------------------------------------
  int64_t connections_accepted() const { return connections_accepted_; }
  int64_t connections_closed() const { return connections_closed_; }
  int64_t idle_timeouts() const { return idle_timeouts_; }
  int64_t frames_decoded() const { return frames_decoded_; }
  int64_t malformed_frames() const { return malformed_frames_; }
  /// Raw bytes read off sockets (including partial/rejected frames).
  int64_t bytes_read() const { return bytes_read_; }

  int64_t TotalStalls() const {
    int64_t n = 0;
    for (const auto& [id, s] : streams_) n += s.backpressure_stalls;
    return n;
  }
  int64_t TotalStallMicros() const {
    int64_t n = 0;
    for (const auto& [id, s] : streams_) n += s.stall_micros;
    return n;
  }

  const std::map<uint32_t, IngestStreamMetrics>& streams() const {
    return streams_;
  }

 private:
  int64_t connections_accepted_ = 0;
  int64_t connections_closed_ = 0;
  int64_t idle_timeouts_ = 0;
  int64_t frames_decoded_ = 0;
  int64_t malformed_frames_ = 0;
  int64_t bytes_read_ = 0;
  std::map<uint32_t, IngestStreamMetrics> streams_;
};

}  // namespace klink

#endif  // KLINK_RUNTIME_METRICS_H_
