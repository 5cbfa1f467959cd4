#include "src/runtime/reshard.h"

#include "src/common/check.h"
#include "src/operators/aggregate_operator.h"
#include "src/operators/exchange_operator.h"
#include "src/query/query.h"
#include "src/runtime/engine.h"

namespace klink {

ReshardController::ReshardController(Engine* engine) : engine_(engine) {
  KLINK_CHECK(engine != nullptr);
}

PartitionExchangeOperator& ReshardController::Partition(Query& q) {
  // The builder places only a PartitionExchangeOperator at this index.
  return static_cast<PartitionExchangeOperator&>(
      q.op(q.shard_region().partition_op));
}

bool ReshardController::reshard_in_flight(QueryId id) const {
  for (const Pending& p : pending_) {
    if (p.id == id) return true;
  }
  return false;
}

bool ReshardController::RequestReshard(QueryId id, int new_count) {
  if (!engine_->IsActive(id) || reshard_in_flight(id)) return false;
  Query& q = engine_->query(id);
  if (!q.sharded()) return false;
  if (new_count < 1 || new_count > q.shard_region().max_shards) return false;
  const PartitionExchangeOperator& part = Partition(q);
  if (new_count == part.active_shards()) return false;
  // An in-flight protocol the controller does not know about (restored
  // from a checkpoint and not yet adopted) blocks new requests.
  if (part.pending_shards() != 0 || part.reshard_paused()) return false;
  pending_.push_back(Pending{id, new_count, /*armed=*/false});
  return true;
}

bool ReshardController::Drained(Query& q) {
  if (!Partition(q).reshard_paused()) return false;
  const Query::ShardRegion& region = q.shard_region();
  for (int i = region.shard_begin; i < region.shard_end; ++i) {
    if (!q.op(i).input().empty()) return false;
  }
  return true;
}

void ReshardController::Redistribute(Query& q, int new_count) {
  const Query::ShardRegion& region = q.shard_region();
  // Export drains each shard's keyed state as typed per-key entries in
  // sorted key order, then every entry is imported, shard by shard, into
  // the shard that will own its key under the new count. The routing hash
  // is ShardOf — the same function the partition router uses — so
  // replayed and future data always finds the moved state.
  // The builder's typed factory constructs only WindowAggregateOperators
  // in a shard region.
  const auto shard = [&](int s) -> WindowAggregateOperator& {
    return static_cast<WindowAggregateOperator&>(q.op(region.shard_begin + s));
  };
  std::vector<WindowAggregateOperator::KeyedStateEntry> entries;
  for (int s = 0; s < region.max_shards; ++s) {
    shard(s).ExportKeyedState(&entries);
  }
  for (const WindowAggregateOperator::KeyedStateEntry& entry : entries) {
    shard(ShardOf(entry.key, new_count)).ImportKeyedState(entry);
  }
}

void ReshardController::OnCycleEnd(TimeMicros /*now*/) {
  // Adopt in-flight protocols this controller never armed: after a crash
  // restore, partitions come back armed (or paused) from the checkpoint
  // while the controller starts empty.
  for (const QueryFabric::LiveQuery& lq : engine_->fabric().live()) {
    if (!lq.query->sharded() || reshard_in_flight(lq.id)) continue;
    const int pending_shards = Partition(*lq.query).pending_shards();
    if (pending_shards != 0) {
      pending_.push_back(Pending{lq.id, pending_shards, /*armed=*/true});
    }
  }

  for (auto it = pending_.begin(); it != pending_.end();) {
    Pending& p = *it;
    if (!engine_->IsActive(p.id)) {
      it = pending_.erase(it);  // detached mid-protocol; state retired
      continue;
    }
    Query& q = engine_->query(p.id);
    if (!p.armed) {
      // The first barrier the partition has not broadcast yet.
      PartitionExchangeOperator& part = Partition(q);
      part.ArmReshard(p.new_count, part.last_broadcast_epoch() + 1);
      p.armed = true;
      ++it;
      continue;
    }
    if (!Drained(q)) {
      ++it;
      continue;
    }
    Redistribute(q, p.new_count);
    Partition(q).CompleteReshard();
    ++completed_;
    it = pending_.erase(it);
  }
}

}  // namespace klink
