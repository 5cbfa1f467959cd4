#ifndef KLINK_OPERATORS_EXCHANGE_OPERATOR_H_
#define KLINK_OPERATORS_EXCHANGE_OPERATOR_H_

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/event/stream_queue.h"
#include "src/operators/operator.h"

namespace klink {

/// Finalizer-quality 64-bit mix (splitmix64). Shard routing and re-shard
/// state redistribution must agree on this exact function: an event for key
/// k and the keyed state for k must always land on the same shard.
inline uint64_t ShardMix(uint64_t x) {
  return Mix64(x + 0x9e3779b97f4a7c15ull);
}

/// Shard index of `key` among `num_shards` active shards.
inline int ShardOf(uint64_t key, int num_shards) {
  return static_cast<int>(ShardMix(key) % static_cast<uint64_t>(num_shards));
}

/// Splits a keyed stream across per-shard input queues by key hash.
///
/// The partition is a unary operator whose output fans out: data events are
/// routed to `ShardOf(key, active_shards)`, while control elements
/// (watermarks, latency markers, checkpoint barriers) are broadcast to all
/// `max_shards` queues — active *and* inactive — so every shard's
/// watermark/barrier bookkeeping stays current and activating a shard at a
/// re-shard needs only a state import, not a control replay. Fan-out is
/// impossible through the single-consumer Edge graph, so the partition
/// routes through its own `inline_emitter()` (see Operator) targeting
/// queues wired by the PipelineBuilder.
///
/// Live re-sharding: ArmReshard(new_count, pause_at_epoch) makes the
/// partition pause *immediately after broadcasting* the barrier of epoch
/// `pause_at_epoch`. While paused, every emission is appended to an ordered
/// hold buffer instead of being routed; the ReshardController waits for the
/// shard queues to drain to that barrier, redistributes keyed state, then
/// calls CompleteReshard() which switches the active count and replays the
/// hold buffer through normal routing. The protocol fields (armed count,
/// pause epoch, paused flag) are checkpointed, so a crash between arm and
/// completion restores mid-protocol and the controller adopts and finishes
/// the re-shard after recovery. The hold buffer itself is NOT checkpointed:
/// a barrier that aligns while paused is itself held, so it reaches the
/// shards *behind* the held elements and their snapshots of that epoch
/// already include them (see SerializeState).
class PartitionExchangeOperator final : public Operator {
 public:
  PartitionExchangeOperator(std::string name, double cost_micros,
                            int active_shards, int max_shards);

  /// Wires the per-shard target queues (size max_shards, non-owning).
  /// Called once by the PipelineBuilder after the shard operators exist.
  void SetTargets(std::vector<StreamQueue*> targets);

  int active_shards() const { return active_shards_; }
  bool reshard_paused() const { return paused_; }
  int pending_shards() const { return pending_new_count_; }
  uint64_t last_broadcast_epoch() const { return last_broadcast_epoch_; }

  /// Requests a re-shard to `new_count` active shards, pausing right after
  /// the barrier of epoch `pause_at_epoch` is broadcast. The controller
  /// passes the first epoch not yet broadcast.
  void ArmReshard(int new_count, uint64_t pause_at_epoch);

  /// Switches to the armed shard count and replays held elements.
  void CompleteReshard();

  /// ---- Operator overrides --------------------------------------------
  Emitter* inline_emitter() override { return &router_; }

 protected:
  /// Routes a data run with one accounting update.
  void OnDataRun(const Event* events, int64_t n, BatchClock& clock,
                 Emitter& out) override;
  void SerializeState(StateWriter& w) const override;
  void RestoreState(StateReader& r) override;

 private:
  /// The partition's private emitter: routes data by key hash, broadcasts
  /// controls, and appends to the hold buffer while paused.
  class Router final : public Emitter {
   public:
    explicit Router(PartitionExchangeOperator* owner) : owner_(owner) {}
    void Emit(const Event& e) override { owner_->Route(e); }

   private:
    PartitionExchangeOperator* owner_;
  };

  void Route(const Event& e);

  int active_shards_;
  const int max_shards_;
  std::vector<StreamQueue*> targets_;
  Router router_{this};

  /// Re-shard protocol state (all checkpointed).
  int pending_new_count_ = 0;  // 0 = no re-shard armed
  uint64_t pause_at_epoch_ = 0;
  bool paused_ = false;
  uint64_t last_broadcast_epoch_ = 0;
  std::vector<Event> hold_;
};

/// Merges per-shard streams back into one: the inverse exchange placed
/// between the shard operators and the rest of the query.
///
/// One input per (max) shard. Watermark merging is the base Operator's
/// min-across-inputs rule; an inactive or key-starved shard still forwards
/// every broadcast watermark, so an empty shard never stalls the merged
/// watermark. Data events are buffered per *segment* — the span between
/// consecutive watermarks on their input — and flushed when the merged
/// watermark closes that segment, sorted by (event_time, key, value bits).
/// Because the partitions broadcast an identical control sequence to every
/// shard, segment membership is invariant under shard count and scheduling,
/// and the canonical flush order makes the merged output byte-identical
/// across shard counts, executors, and a mid-run re-shard.
///
/// Latency markers arrive once per shard; the merge forwards one copy when
/// the minimum per-input marker count advances (the copies are identical).
/// Checkpoint barriers align across all inputs in the base class, which
/// emits exactly one downstream barrier.
class MergeExchangeOperator final : public Operator {
 public:
  /// Simulated per-buffered-event overhead (mirrors StreamQueue's).
  static constexpr int64_t kPerBufferedOverhead = 32;

  MergeExchangeOperator(std::string name, double cost_micros, int num_shards);

  int64_t buffered_events() const { return buffered_events_; }

 protected:
  void OnData(const Event& e, TimeMicros now, Emitter& out) override;
  void OnWatermark(const Event& incoming, TimeMicros min_watermark,
                   TimeMicros now, Emitter& out) override;
  void OnStreamWatermark(const Event& incoming, int stream) override;
  void OnLatencyMarker(const Event& e, TimeMicros now, Emitter& out) override;
  /// Retraction/update pairs from late refires buffer into the same
  /// watermark segment as data and flush in the same canonical order (the
  /// kind rank puts a retraction before the update that replaces it).
  void OnRetraction(const Event& e, TimeMicros now, Emitter& out) override;
  void OnUpdate(const Event& e, TimeMicros now, Emitter& out) override;
  void SerializeState(StateWriter& w) const override;
  void RestoreState(StateReader& r) override;

 private:
  /// Appends a keyed element to its input's open segment.
  void BufferElement(const Event& e);

  struct Segment {
    std::vector<Event> events;
    int64_t bytes = 0;
    bool swm = false;
  };

  /// Watermarks seen per input = index of the segment that input is
  /// currently filling.
  std::vector<int64_t> seen_watermarks_;
  /// Marker de-duplication: per-input seen counts and the forwarded count.
  std::vector<int64_t> seen_markers_;
  int64_t forwarded_markers_ = 0;
  /// Open segments by index; flushed in order as the merged watermark
  /// advances.
  std::map<int64_t, Segment> buffers_;
  int64_t flushed_ = 0;
  int64_t buffered_events_ = 0;
  std::vector<Event> flush_scratch_;
};

}  // namespace klink

#endif  // KLINK_OPERATORS_EXCHANGE_OPERATOR_H_
