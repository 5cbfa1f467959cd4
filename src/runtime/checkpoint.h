#ifndef KLINK_RUNTIME_CHECKPOINT_H_
#define KLINK_RUNTIME_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/serialize.h"
#include "src/common/thread_annotations.h"
#include "src/common/types.h"
#include "src/operators/operator.h"
#include "src/query/query.h"

namespace klink {

class IngestGateway;

/// Checkpointing knobs (DESIGN.md "Fault tolerance").
struct CheckpointConfig {
  /// Directory holding epoch files and the MANIFEST. Created if missing.
  std::string dir;
  /// Virtual-time spacing between barrier injections.
  DurationMicros interval = SecondsToMicros(1);
};

/// One query's slice of a loaded checkpoint.
struct LoadedQueryState {
  QueryId query_id = 0;
  /// Ingest replay cursors: for each source stream, the per-stream sequence
  /// number of the last element reflected in the checkpoint. Recovery
  /// rewinds the gateway to cursor and clients replay seq > cursor.
  std::vector<std::pair<uint32_t, uint64_t>> cursors;
  /// Per-operator state blobs, in topological (operators()) order.
  std::vector<std::vector<uint8_t>> op_blobs;
};

/// A complete, hash-verified checkpoint read back from disk.
struct LoadedCheckpoint {
  uint64_t epoch = 0;
  /// Engine virtual time at barrier injection; the restored engine's clock
  /// resumes here.
  TimeMicros checkpoint_time = 0;
  std::vector<LoadedQueryState> queries;
};

/// Coordinates asynchronous barrier snapshots (Carbone et al., "Lightweight
/// Asynchronous Snapshots for Distributed Dataflows") over the engine's
/// deployed queries:
///
///   1. Every `interval` of virtual time, OnCycleStart() injects an
///      epoch-numbered barrier into each registered query's source queues —
///      after the cycle's ingest, so the epoch's replay cursor is exactly
///      the gateway's delivered prefix — and records per-stream cursors.
///   2. Barriers flow FIFO with the data. When an operator has seen the
///      epoch's barrier on all inputs (alignment; multi-input operators
///      block ahead-of-epoch inputs, see execution_context.cc), it calls
///      OnBarrierAligned and its state is serialized synchronously: all
///      pre-barrier elements are in the snapshot, no post-barrier ones.
///   3. When every operator of every query has aligned, the next
///      OnCycleStart hands the epoch to the coordinator's writer thread,
///      which persists epochs one at a time in epoch order: it builds the
///      file's bytes and FNV-1a hash, writes `epoch_<N>.ckpt` via
///      tmp+fsync+rename, rewrites the MANIFEST the same way, fsyncs the
///      directory, and only then prunes old epochs. The engine thread does
///      no file I/O and never waits at a hand-over: an epoch handed over
///      while another still waits behind the one being written replaces
///      it (acks are cumulative, so the newer epoch covers the older), so
///      at most two epochs are in flight.
///   4. The engine thread delivers each epoch the writer made durable, in
///      epoch order, at the next OnCycleStart (or DeliverDurableEpochs /
///      Flush): it advances last_durable_epoch() and the ack callback
///      reports each stream's durable sequence prefix (the ingest server
///      turns these into CHECKPOINT_ACK frames, letting clients trim their
///      replay buffers). An epoch whose file, MANIFEST or directory sync
///      failed is never delivered.
///
/// Thread safety: OnBarrierAligned may run on executor worker threads (one
/// query runs on one thread, but queries run concurrently); captures are
/// mutex-buffered. Persistence runs on the writer thread. Everything else
/// runs on the engine thread, the ack callback included (the ingest server
/// queues the acks there, and its polling thread sends them).
class CheckpointCoordinator final : public BarrierObserver {
 public:
  /// (stream_id, epoch, durable_seq): every element with seq <= durable_seq
  /// on stream_id is covered by durable checkpoint `epoch`.
  using AckFn =
      std::function<void(uint32_t stream_id, uint64_t epoch, uint64_t seq)>;

  explicit CheckpointCoordinator(CheckpointConfig config);
  /// Persists every epoch already handed to the writer, then joins it.
  /// Fires no acks: the ack target (e.g. the ingest server) may already be
  /// gone. Call Flush() first to deliver.
  ~CheckpointCoordinator() override;

  CheckpointCoordinator(const CheckpointCoordinator&) = delete;
  CheckpointCoordinator& operator=(const CheckpointCoordinator&) = delete;

  /// Registers a query; may be called before the engine runs or live,
  /// between cycles, for a freshly attached tenant. A query registered
  /// while an epoch is in flight simply joins at the next barrier
  /// injection — in-flight epochs captured their query set at injection
  /// and are unaffected. `stream_ids[i]` is the gateway stream feeding
  /// source i (used for replay cursors); `gateway` may be null for
  /// in-process feeds, in which case no cursors are recorded. Installs
  /// this coordinator as every operator's barrier observer.
  void RegisterQuery(Query* query, std::vector<uint32_t> stream_ids,
                     IngestGateway* gateway);

  /// Forgets a detached query: it stops receiving barriers, its operators
  /// drop their observer, and its slice is removed from every in-flight
  /// epoch — a departing tenant's state never appears in a checkpoint
  /// finalized after it left, and epochs still waiting on its alignments
  /// complete without them. No-op for unknown ids. The engine calls this
  /// when a query retires (graceful drains have processed any queued
  /// barriers by then).
  void DeregisterQuery(QueryId id);

  /// Called after a restore: the next epoch is `epoch` + 1 and the next
  /// barrier fires one interval after `checkpoint_time`.
  void ResumeFrom(uint64_t epoch, TimeMicros checkpoint_time);

  void SetAckCallback(AckFn fn) { ack_ = std::move(fn); }

  /// Engine hook, called once per cycle after ingest. Hands every epoch
  /// whose barriers have fully aligned to the writer, delivers the epochs
  /// it has made durable, then injects the next epoch's barriers if `now`
  /// reached the interval.
  void OnCycleStart(TimeMicros now);

  /// Delivers the epochs the writer has made durable since the last
  /// delivery (frontier + acks) without blocking. Listen loops call it
  /// before polling the network, so acks go out while no cycle runs.
  void DeliverDurableEpochs();

  /// Hands over every fully aligned epoch, waits until the writer has
  /// persisted them all, and delivers them.
  void Flush();

  /// BarrierObserver: serializes `op` into the epoch's pending buffer.
  void OnBarrierAligned(Operator& op, uint64_t epoch) override;

  /// Newest delivered epoch: its file, MANIFEST entry and directory entry
  /// are durable (0 = none). Lags the writer until the next delivery.
  uint64_t last_durable_epoch() const { return last_durable_epoch_; }
  uint64_t epochs_started() const { return next_epoch_ - 1; }
  int64_t barriers_injected() const { return barriers_injected_; }

 private:
  struct Registered {
    Query* query = nullptr;
    std::vector<uint32_t> stream_ids;  // one per source, same order
    IngestGateway* gateway = nullptr;
  };
  struct PendingQuery {
    std::vector<std::pair<uint32_t, uint64_t>> cursors;
    std::vector<std::vector<uint8_t>> op_blobs;  // indexed by operator
    int captured = 0;
  };
  /// One in-flight epoch. `queries` snapshots the registered set at
  /// injection time, so registrations and deregistrations during the
  /// epoch's lifetime never shift another query's slice.
  struct PendingEpoch {
    TimeMicros checkpoint_time = 0;
    std::map<QueryId, PendingQuery> queries;
    /// Alignments this epoch still expects (shrinks on deregistration).
    int expected_operators = 0;
    int total_captured = 0;
  };

  /// An epoch the writer made durable, with the acks it owes:
  /// (stream_id, durable_seq) in query-id order.
  struct DurableEpoch {
    uint64_t epoch = 0;
    std::vector<std::pair<uint32_t, uint64_t>> acks;
  };

  void InjectBarriers(TimeMicros now);
  /// Moves fully aligned epochs from pending_ to the writer, in order.
  void HandOverAligned();
  void WriterLoop();
  /// Writer thread: epoch file, MANIFEST, directory fsync, then pruning.
  /// Returns false (leaving manifest_ as it was) if any step failed.
  bool PersistEpoch(uint64_t epoch, const PendingEpoch& pending);

  const CheckpointConfig config_;
  /// Ordered by id: barrier injection and serialization walk tenants in a
  /// deterministic order regardless of registration history.
  std::map<QueryId, Registered> queries_;
  /// op -> (query id, operator index); maintained by (De)RegisterQuery.
  std::map<const Operator*, std::pair<QueryId, int>> op_index_;

  uint64_t next_epoch_ = 1;
  TimeMicros next_checkpoint_time_ = 0;
  bool next_time_armed_ = false;
  uint64_t last_durable_epoch_ = 0;
  int64_t barriers_injected_ = 0;
  AckFn ack_;

  /// Durable epochs currently on disk: epoch -> (filename, hash). Read at
  /// construction, then owned by the writer thread.
  std::map<uint64_t, std::pair<std::string, uint64_t>> manifest_;

  /// Guards the epoch pipeline: OnBarrierAligned captures into pending_
  /// from executor worker threads, the engine thread hands aligned epochs
  /// to the writer and collects durable ones from it.
  Mutex mu_{"ckpt.mu"};
  CondVar work_cv_;  // writer: an epoch was handed over, or stopping_
  CondVar done_cv_;  // Flush: the writer finished an epoch
  std::map<uint64_t, PendingEpoch> pending_ KLINK_GUARDED_BY(mu_);
  /// The epoch handed over and not yet started (HandOverAligned).
  std::optional<std::pair<uint64_t, PendingEpoch>> queued_
      KLINK_GUARDED_BY(mu_);
  /// Epochs handed over and not yet finished (queued + being written).
  int unfinished_ KLINK_GUARDED_BY(mu_) = 0;
  std::vector<DurableEpoch> durable_ KLINK_GUARDED_BY(mu_);
  bool stopping_ KLINK_GUARDED_BY(mu_) = false;

  /// Declared last: it runs WriterLoop over every member above.
  std::thread writer_;
};

/// Reads the newest complete checkpoint under `dir`: parses the MANIFEST,
/// verifies each candidate file's FNV-1a hash and structure, and falls back
/// to the previous epoch when the newest is torn (truncated, corrupted, or
/// missing). Under KLINK_AUDIT=1 a hash mismatch is fatal instead — a torn
/// checkpoint in audit runs means the writer's tmp+rename discipline broke.
/// Returns false when no complete checkpoint exists.
bool LoadLatestCheckpoint(const std::string& dir, LoadedCheckpoint* out);

/// Applies one query's blobs to a freshly built identical topology.
/// Aborts (KLINK_CHECK) on operator-count or layout mismatch.
void RestoreQueryState(const LoadedQueryState& state, Query* query);

}  // namespace klink

#endif  // KLINK_RUNTIME_CHECKPOINT_H_
