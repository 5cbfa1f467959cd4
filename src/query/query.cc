#include "src/query/query.h"

#include <utility>

#include "src/common/check.h"

namespace klink {

Query::Query(QueryId id, std::string name,
             std::vector<std::unique_ptr<Operator>> operators,
             std::vector<Edge> edges)
    : Query(id, std::move(name), std::move(operators), std::move(edges),
            ShardRegion{}) {}

Query::Query(QueryId id, std::string name,
             std::vector<std::unique_ptr<Operator>> operators,
             std::vector<Edge> edges, ShardRegion shard_region)
    : id_(id),
      name_(std::move(name)),
      operators_(std::move(operators)),
      edges_(std::move(edges)),
      shard_region_(std::move(shard_region)) {
  KLINK_CHECK(!operators_.empty());
  KLINK_CHECK_EQ(operators_.size(), edges_.size());
  if (sharded()) {
    const ShardRegion& sr = shard_region_;
    KLINK_CHECK_GT(sr.shard_begin, 0);
    KLINK_CHECK_GT(sr.shard_end, sr.shard_begin);
    KLINK_CHECK_LT(sr.shard_end, static_cast<int>(operators_.size()));
    KLINK_CHECK_EQ(sr.max_shards, sr.shard_end - sr.shard_begin);
    KLINK_CHECK_EQ(sr.merge_op, sr.shard_end);
    KLINK_CHECK(sr.partition_op >= 0 && sr.partition_op < sr.shard_begin);
  }
  std::vector<int> in_degree(operators_.size(), 0);
  for (size_t i = 0; i < operators_.size(); ++i) {
    Operator* op = operators_[i].get();
    const Edge& e = edges_[i];
    if (e.downstream == -1) {
      auto* sink = dynamic_cast<SinkOperator*>(op);
      KLINK_CHECK(sink != nullptr);
      KLINK_CHECK(sink_ == nullptr);  // exactly one sink
      sink_ = sink;
    } else {
      // Topological order: edges only point forward.
      KLINK_CHECK_GT(e.downstream, static_cast<int>(i));
      KLINK_CHECK_LT(e.downstream, static_cast<int>(operators_.size()));
      ++in_degree[static_cast<size_t>(e.downstream)];
    }
  }
  KLINK_CHECK(sink_ != nullptr);
  for (size_t i = 0; i < operators_.size(); ++i) {
    if (in_degree[i] != 0) continue;
    // Shard operators are fed by the partition exchange's router, outside
    // the Edge graph, so an edge-degree of zero does not make them roots.
    if (sharded() && static_cast<int>(i) >= shard_region_.shard_begin &&
        static_cast<int>(i) < shard_region_.shard_end) {
      continue;
    }
    auto* src = dynamic_cast<SourceOperator*>(operators_[i].get());
    KLINK_CHECK(src != nullptr);  // roots must be sources
    sources_.push_back(src);
  }
  KLINK_CHECK(!sources_.empty());
  // Lanes: the stage-ordered {prefix, shard..., suffix} schedulable units
  // of a sharded query.
  if (sharded()) {
    lanes_.push_back(Lane{0, shard_region_.shard_begin, 0});
    for (int s = 0; s < shard_region_.max_shards; ++s) {
      lanes_.push_back(Lane{shard_region_.shard_begin + s,
                            shard_region_.shard_begin + s + 1, 1});
    }
    lanes_.push_back(Lane{shard_region_.shard_end, num_operators(), 2});
  }
}

Operator& Query::op(int i) {
  KLINK_CHECK(i >= 0 && i < num_operators());
  return *operators_[static_cast<size_t>(i)];
}

const Operator& Query::op(int i) const {
  KLINK_CHECK(i >= 0 && i < num_operators());
  return *operators_[static_cast<size_t>(i)];
}

const Query::Edge& Query::edge(int i) const {
  KLINK_CHECK(i >= 0 && i < num_operators());
  return edges_[static_cast<size_t>(i)];
}

const Query::Lane& Query::lane(int i) const {
  KLINK_CHECK(i >= 0 && i < num_lanes());
  return lanes_[static_cast<size_t>(i)];
}

int64_t Query::QueuedEvents() const {
  int64_t total = 0;
  for (const auto& op : operators_) total += op->QueuedEvents();
  return total;
}

int64_t Query::MemoryBytes() const {
  int64_t total = 0;
  for (const auto& op : operators_) total += op->MemoryBytes();
  return total;
}

}  // namespace klink
