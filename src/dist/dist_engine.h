#ifndef KLINK_DIST_DIST_ENGINE_H_
#define KLINK_DIST_DIST_ENGINE_H_

#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/types.h"
#include "src/dist/forwarding.h"
#include "src/dist/placement.h"
#include "src/query/query.h"
#include "src/runtime/audit.h"
#include "src/runtime/event_feed.h"
#include "src/runtime/execution_context.h"
#include "src/runtime/metrics.h"
#include "src/runtime/node.h"
#include "src/runtime/query_fabric.h"

namespace klink {

/// Distributed deployment configuration (Sec. 4 / Sec. 6.2.4).
struct DistEngineConfig {
  int num_nodes = 2;
  NodeConfig node;
  /// Scheduling cycle r, shared by all nodes.
  DurationMicros cycle_length = MillisToMicros(120);
  /// One-hop latency of inter-node event transfer and of the RPC-based
  /// information forwarding: remote nodes read cost/delay records this much
  /// later than they were published.
  DurationMicros link_latency = MillisToMicros(2);
  /// Physical plan strategy (see PlacementMode).
  PlacementMode placement = PlacementMode::kLocal;
};

/// Multi-node SPE: operators are partitioned across nodes by the physical
/// plan; each node runs the single-node step (runtime/node.h: the ingest
/// distributor and the policy step, with its own cores, memory and
/// autonomous policy) over the locally deployed sub-queries. A node's
/// share of a query is one contiguous operator range, drained by the
/// engine's ExecutionContext and observed by the engine's
/// CollectQueryInfo. Cross-node edges deliver events after link_latency;
/// Klink's runtime information travels through per-query
/// ForwardingChannels with the same latency, so every policy decision uses
/// locally fresh + remotely stale data, as in the paper's decentralized
/// design. Under KLINK_AUDIT=1 every cycle runs the InvariantAuditor's
/// memory-accounting and progress-monotonicity checks over all queries.
class DistEngine : private Egress {
 public:
  using PolicyFactory =
      std::function<std::unique_ptr<SchedulingPolicy>(NodeId)>;

  DistEngine(const DistEngineConfig& config, const PolicyFactory& factory);

  DistEngine(const DistEngine&) = delete;
  DistEngine& operator=(const DistEngine&) = delete;

  /// Deploys a query. Its operator chain is split into contiguous segments
  /// placed starting at node (id mod num_nodes), so concurrent queries
  /// spread across the cluster.
  QueryId AddQuery(std::unique_ptr<Query> query, std::unique_ptr<EventFeed> feed,
                   TimeMicros deploy_time = 0);

  void RunUntil(TimeMicros end_time);
  TimeMicros now() const { return now_; }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  Node& node(int i) { return *nodes_[static_cast<size_t>(i)]; }
  int num_queries() const { return static_cast<int>(queries_.size()); }
  Query& query(QueryId id);
  const std::vector<NodeId>& placement(QueryId id) const;

  const EngineMetrics& metrics() const { return metrics_; }
  Histogram AggregateSwmLatency() const;
  Histogram AggregateMarkerLatency() const;

 private:
  struct DeployedQuery {
    std::unique_ptr<Query> query;
    std::unique_ptr<EventFeed> feed;
    std::vector<NodeId> placement;
    ForwardingChannel channel;
  };
  /// An event on a cross-node link, stamped with its input stream at
  /// operator `op_index`.
  struct Transit {
    TimeMicros deliver_time;
    int64_t seq;
    QueryId query_id;
    int op_index;
    Event event;
    bool operator>(const Transit& other) const {
      if (deliver_time != other.deliver_time) {
        return deliver_time > other.deliver_time;
      }
      return seq > other.seq;
    }
  };

  void RunCycle();
  void DeliverTransit();
  void PublishInfo();
  /// Collects the queries node `node_id` hosts into `snap->queries`: fresh
  /// local state of the node's range merged with forwarded remote state.
  void BuildNodeSnapshot(NodeId node_id, RuntimeSnapshot* snap);
  /// Egress: outputs crossing to another node enter the transit heap.
  void Ship(QueryId query, int downstream, TimeMicros completed,
            const std::vector<Event>& events) override;

  DistEngineConfig config_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<DeployedQuery> queries_;
  std::priority_queue<Transit, std::vector<Transit>, std::greater<Transit>>
      transit_;
  int64_t transit_seq_ = 0;
  /// fed_[n]: the fed queries whose sources node n hosts, in id order —
  /// node n's ingest order.
  std::vector<std::vector<QueryFabric::LiveQuery>> fed_;
  /// Every deployed query, in id order.
  std::vector<const Query*> all_;
  EngineMetrics metrics_;
  TimeMicros now_ = 0;
  /// Nodes and their slots drain one after another, so one context serves
  /// them all.
  ExecutionContext context_{0};
  /// Non-null when KLINK_AUDIT=1 at construction (see runtime/audit.h).
  std::unique_ptr<InvariantAuditor> audit_;
};

}  // namespace klink

#endif  // KLINK_DIST_DIST_ENGINE_H_
