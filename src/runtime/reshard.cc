#include "src/runtime/reshard.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/operators/exchange_operator.h"
#include "src/query/query.h"
#include "src/runtime/engine.h"

namespace klink {

ReshardController::ReshardController(Engine* engine) : engine_(engine) {
  KLINK_CHECK(engine != nullptr);
}

std::vector<PartitionExchangeOperator*> ReshardController::Partitions(
    Query& q) const {
  std::vector<PartitionExchangeOperator*> parts;
  parts.reserve(q.shard_region().partition_ops.size());
  for (const int idx : q.shard_region().partition_ops) {
    // The builder places only PartitionExchangeOperators at these indices.
    parts.push_back(static_cast<PartitionExchangeOperator*>(&q.op(idx)));
  }
  return parts;
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
  const auto parts = Partitions(q);
  if (new_count == parts.front()->active_shards()) return false;
  for (const PartitionExchangeOperator* p : parts) {
    // An in-flight protocol the controller does not know about (restored
    // from a checkpoint and not yet adopted) blocks new requests.
    if (p->pending_shards() != 0 || p->reshard_paused()) return false;
  }
  pending_.push_back(Pending{id, new_count, /*armed=*/false});
  return true;
}

void ReshardController::EnableHotShardTrigger(double ratio, int cycles) {
  KLINK_CHECK_GT(ratio, 1.0);
  KLINK_CHECK_GE(cycles, 1);
  hot_trigger_ = true;
  hot_ratio_ = ratio;
  hot_cycles_ = cycles;
}

void ReshardController::Arm(Query& q, Pending& p) {
  const auto parts = Partitions(q);
  // The first epoch every partition is still guaranteed to broadcast:
  // epochs at or before the max are already broadcast by some partition
  // (possibly in flight toward the others), so pausing there would split
  // the partitions across different barriers.
  uint64_t epoch = 0;
  for (const PartitionExchangeOperator* part : parts) {
    epoch = std::max(epoch, part->last_broadcast_epoch());
  }
  ++epoch;
  for (PartitionExchangeOperator* part : parts) {
    part->ArmReshard(p.new_count, epoch);
  }
  p.armed = true;
}

bool ReshardController::Drained(Query& q) const {
  for (const PartitionExchangeOperator* part : Partitions(q)) {
    if (!part->reshard_paused()) return false;
  }
  const Query::ShardRegion& region = q.shard_region();
  for (int i = region.shard_begin; i < region.shard_end; ++i) {
    const Operator& op = q.op(i);
    for (int s = 0; s < op.num_inputs(); ++s) {
      if (!op.input(s).empty()) return false;
    }
  }
  return true;
}

void ReshardController::Redistribute(Query& q, int new_count) {
  const Query::ShardRegion& region = q.shard_region();
  // Export drains each shard's keyed state (deterministically ordered by
  // the operators' own keyed containers), then every entry is imported
  // into the shard that will own its key under the new count. The routing
  // hash is ShardOf — the same function the partition router uses — so
  // replayed and future data always finds the moved state.
  std::vector<Operator::KeyedStateEntry> entries;
  for (int i = region.shard_begin; i < region.shard_end; ++i) {
    if (q.op(i).HasKeyedState()) q.op(i).ExportKeyedState(&entries);
  }
  for (const Operator::KeyedStateEntry& entry : entries) {
    const int target = ShardOf(entry.key, new_count);
    q.op(region.shard_begin + target).ImportKeyedState(entry);
  }
}

void ReshardController::OnCycleEnd(TimeMicros /*now*/) {
  // Adopt in-flight protocols this controller never armed: after a crash
  // restore, partitions come back armed (or paused) from the checkpoint
  // while the controller starts empty.
  for (const QueryFabric::LiveQuery& lq : engine_->fabric().live()) {
    if (!lq.query->sharded() || reshard_in_flight(lq.id)) continue;
    const auto parts = Partitions(*lq.query);
    if (parts.front()->pending_shards() != 0) {
      pending_.push_back(
          Pending{lq.id, parts.front()->pending_shards(), /*armed=*/true});
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
      Arm(q, p);
      ++it;
      continue;
    }
    if (!Drained(q)) {
      ++it;
      continue;
    }
    Redistribute(q, p.new_count);
    for (PartitionExchangeOperator* part : Partitions(q)) {
      part->CompleteReshard();
    }
    ++completed_;
    hot_streak_.erase(p.id);
    it = pending_.erase(it);
  }

  if (hot_trigger_) CheckHotShards();
}

void ReshardController::CheckHotShards() {
  for (const QueryFabric::LiveQuery& lq : engine_->fabric().live()) {
    Query& q = *lq.query;
    if (!q.sharded() || reshard_in_flight(lq.id)) continue;
    const Query::ShardRegion& region = q.shard_region();
    const auto parts = Partitions(q);
    const int active = parts.front()->active_shards();
    if (active >= region.max_shards) continue;
    int64_t total = 0;
    int64_t hottest = 0;
    for (int s = 0; s < active; ++s) {
      const Operator& op = q.op(region.shard_begin + s);
      int64_t queued = 0;
      for (int c = 0; c < op.num_inputs(); ++c) {
        queued += op.input(c).data_count();
      }
      total += queued;
      hottest = std::max(hottest, queued);
    }
    // Require a real backlog before calling skew: a handful of events
    // trivially violates any ratio.
    const double mean =
        static_cast<double>(total) / static_cast<double>(active);
    if (total >= 64 && static_cast<double>(hottest) > hot_ratio_ * mean) {
      if (++hot_streak_[lq.id] >= hot_cycles_) {
        hot_streak_[lq.id] = 0;
        RequestReshard(lq.id,
                       std::min(active * 2, region.max_shards));
      }
    } else {
      hot_streak_[lq.id] = 0;
    }
  }
}

}  // namespace klink
