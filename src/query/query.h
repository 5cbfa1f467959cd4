#ifndef KLINK_QUERY_QUERY_H_
#define KLINK_QUERY_QUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/operators/operator.h"
#include "src/operators/sink_operator.h"
#include "src/operators/source_operator.h"

namespace klink {

/// A deployed streaming query: a DAG of operators stored in topological
/// order, with every non-sink operator feeding exactly one downstream
/// operator (joins have multiple upstream operators feeding distinct input
/// streams). Klink performs query-level scheduling (Sec. 3): the engine
/// executes a query by draining its operators in topological order.
///
/// Sharded queries additionally carry a ShardRegion: a contiguous run of
/// identical window-aggregate shard operators fed by one partition exchange
/// and drained into a merge exchange. The region splits the query into
/// *lanes* — the schedulable units of a sharded query (see lanes below).
class Query {
 public:
  struct Edge {
    /// Index of the downstream operator in `operators()`, -1 for the sink.
    int downstream = -1;
    /// Input stream index on the downstream operator.
    int downstream_stream = 0;
  };

  /// Describes the sharded span of the operator vector (at most one per
  /// query): operators [shard_begin, shard_end) are the max_shards shard
  /// operators, all WindowAggregateOperators; the partition exchange lives
  /// before shard_begin and the merge exchange at shard_end. Built by
  /// PipelineBuilder.
  struct ShardRegion {
    int shard_begin = 0;   // first shard operator index
    int shard_end = 0;     // one past the last shard operator index
    int max_shards = 0;    // == shard_end - shard_begin
    int partition_op = 0;  // index of the partition exchange operator
    int merge_op = 0;      // index of the merge exchange operator
  };

  /// A lane is a contiguous operator range of a sharded query drained as
  /// one schedulable unit: lane 0 = [0, shard_begin) at stage 0, one lane
  /// per shard at stage 1, and a final lane [shard_end, num_operators) at
  /// stage 2. An unsharded query has no lanes; it is scheduled whole (lane
  /// -1 at the scheduling seam). Stages order execution within a cycle
  /// (producers before consumers) so concurrent shard lanes never race
  /// their feeding partition or draining merge.
  struct Lane {
    int begin = 0;
    int end = 0;
    int stage = 0;
  };

  Query(QueryId id, std::string name,
        std::vector<std::unique_ptr<Operator>> operators,
        std::vector<Edge> edges);
  Query(QueryId id, std::string name,
        std::vector<std::unique_ptr<Operator>> operators,
        std::vector<Edge> edges, ShardRegion shard_region);

  QueryId id() const { return id_; }
  const std::string& name() const { return name_; }

  int num_operators() const { return static_cast<int>(operators_.size()); }
  Operator& op(int i);
  const Operator& op(int i) const;
  const Edge& edge(int i) const;

  /// Source operators (no upstream), in topological order.
  const std::vector<SourceOperator*>& sources() const { return sources_; }

  /// The unique terminal operator.
  SinkOperator& sink() { return *sink_; }
  const SinkOperator& sink() const { return *sink_; }

  /// ---- sharding -------------------------------------------------------
  bool sharded() const { return shard_region_.max_shards > 0; }
  const ShardRegion& shard_region() const { return shard_region_; }
  /// Lanes in stage order; none when unsharded.
  int num_lanes() const { return static_cast<int>(lanes_.size()); }
  const Lane& lane(int i) const;

  /// Total queued elements across all operator inputs.
  int64_t QueuedEvents() const;

  /// Total simulated memory (queues + operator state) across all operators.
  int64_t MemoryBytes() const;

  /// Virtual time when the query was deployed (set by the engine).
  TimeMicros deploy_time() const { return deploy_time_; }
  void set_deploy_time(TimeMicros t) { deploy_time_ = t; }

 private:
  /// The fabric binds the id it allocates at attach, the query's attach
  /// index (runtime/query_fabric.h); nothing else may rebind an id.
  friend class QueryFabric;

  void BindId(QueryId id) { id_ = id; }

  QueryId id_;
  std::string name_;
  std::vector<std::unique_ptr<Operator>> operators_;
  std::vector<Edge> edges_;
  std::vector<SourceOperator*> sources_;
  SinkOperator* sink_ = nullptr;
  ShardRegion shard_region_;
  std::vector<Lane> lanes_;
  TimeMicros deploy_time_ = 0;
};

}  // namespace klink

#endif  // KLINK_QUERY_QUERY_H_
