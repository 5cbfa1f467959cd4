#ifndef KLINK_RUNTIME_RESHARD_H_
#define KLINK_RUNTIME_RESHARD_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace klink {

class Engine;
class PartitionExchangeOperator;
class Query;

/// Drives live re-sharding of sharded queries: changing the active shard
/// count of a running query without stopping it and without changing its
/// results (runtime/exchange docs; DESIGN.md "Sharded execution").
///
/// Protocol, executed entirely on the engine thread between cycles:
///  1. *Arm*: the query's partition exchange is armed with the pause epoch
///     last broadcast epoch + 1, the first barrier it has not yet
///     broadcast.
///  2. *Drain*: the partition pauses right after broadcasting that barrier,
///     holding subsequent output in an ordered buffer; the controller
///     waits until the partition is paused and every shard input queue is
///     empty — all pre-barrier work has been fully processed.
///  3. *Redistribute*: keyed state is exported from all shard aggregates,
///     rerouted by ShardOf(key, new_count), and imported into its new
///     owner. The hash used here is the router's, so data and state can
///     never disagree about a key's shard.
///  4. *Resume*: CompleteReshard() switches the active count and replays
///     the held elements through normal routing.
///
/// Requires an attached CheckpointCoordinator — barriers are what the
/// pause aligns on. All partition-side protocol state is checkpointed, so
/// a crash at any point restores mid-protocol; the controller adopts
/// in-flight re-shards it discovers on live queries (pending_shards() != 0
/// on a partition it never armed), which is how a restored run finishes a
/// re-shard the crashed run started.
class ReshardController {
 public:
  explicit ReshardController(Engine* engine);

  /// Requests that sharded query `id` run with `new_count` active shards.
  /// Arms at the next cycle end. Returns false (and does nothing) when the
  /// query already runs at `new_count`, a re-shard for it is in flight, or
  /// `new_count` is out of [1, max_shards] — so callers may re-request
  /// idempotently, e.g. a time trigger re-fired after crash recovery.
  bool RequestReshard(QueryId id, int new_count);

  bool reshard_in_flight(QueryId id) const;
  int64_t completed_reshards() const { return completed_; }

  /// Engine hook: runs the protocol steps that are due. Called at the end
  /// of every cycle with workers parked at the executor barrier.
  void OnCycleEnd(TimeMicros now);

 private:
  struct Pending {
    QueryId id = -1;
    int new_count = 0;
    bool armed = false;
  };

  /// The query's partition exchange.
  static PartitionExchangeOperator& Partition(Query& q);
  /// True when the partition is paused and every shard input is empty.
  static bool Drained(Query& q);
  static void Redistribute(Query& q, int new_count);

  Engine* engine_;
  std::vector<Pending> pending_;
  int64_t completed_ = 0;
};

}  // namespace klink

#endif  // KLINK_RUNTIME_RESHARD_H_
