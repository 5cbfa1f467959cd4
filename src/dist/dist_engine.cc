#include "src/dist/dist_engine.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/operators/sink_operator.h"
#include "src/runtime/snapshot.h"

namespace klink {
namespace {

/// The operators [begin, end) of a query that `node` hosts under
/// `placement`; empty when it hosts none. PlaceOperators keeps each node's
/// operators contiguous.
Query::Lane NodeRange(const std::vector<NodeId>& placement, NodeId node) {
  const auto first = std::find(placement.begin(), placement.end(), node);
  const auto last = std::find_if(first, placement.end(),
                                 [node](NodeId n) { return n != node; });
  return Query::Lane{static_cast<int>(first - placement.begin()),
                     static_cast<int>(last - placement.begin()), 0};
}

}  // namespace

DistEngine::DistEngine(const DistEngineConfig& config,
                       const PolicyFactory& factory)
    : config_(config), fed_(static_cast<size_t>(config.num_nodes)) {
  KLINK_CHECK_GE(config.num_nodes, 1);
  for (int i = 0; i < config.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(config.node, factory(i)));
  }
  if (AuditEnabledFromEnv()) audit_ = std::make_unique<InvariantAuditor>();
}

QueryId DistEngine::AddQuery(std::unique_ptr<Query> query,
                             std::unique_ptr<EventFeed> feed,
                             TimeMicros deploy_time) {
  KLINK_CHECK(query != nullptr);
  query->set_deploy_time(deploy_time);
  const QueryId id = static_cast<QueryId>(queries_.size());
  KLINK_CHECK_EQ(query->id(), id);
  DeployedQuery dq;
  dq.placement =
      PlaceOperators(*query, config_.num_nodes,
                     static_cast<NodeId>(id % config_.num_nodes),
                     config_.placement);
  dq.query = std::move(query);
  dq.feed = std::move(feed);
  // The node hosting the sources (the first placement segment) ingests.
  if (dq.feed != nullptr) {
    fed_[static_cast<size_t>(dq.placement.front())].push_back(
        QueryFabric::LiveQuery{id, dq.query.get(), dq.feed.get()});
  }
  all_.push_back(dq.query.get());
  queries_.push_back(std::move(dq));
  return id;
}

Query& DistEngine::query(QueryId id) {
  KLINK_CHECK(id >= 0 && id < num_queries());
  return *queries_[static_cast<size_t>(id)].query;
}

const std::vector<NodeId>& DistEngine::placement(QueryId id) const {
  KLINK_CHECK(id >= 0 && id < num_queries());
  return queries_[static_cast<size_t>(id)].placement;
}

void DistEngine::RunUntil(TimeMicros end_time) {
  while (now_ < end_time) RunCycle();
}

void DistEngine::RunCycle() {
  DeliverTransit();

  // Each node ingests for the queries whose sources it hosts, within the
  // memory its operators leave free. One walk charges every operator's
  // bytes to the node that hosts it.
  std::vector<int64_t> used_bytes(nodes_.size(), 0);
  for (const DeployedQuery& dq : queries_) {
    for (int i = 0; i < dq.query->num_operators(); ++i) {
      used_bytes[static_cast<size_t>(dq.placement[static_cast<size_t>(i)])] +=
          dq.query->op(i).MemoryBytes();
    }
  }
  for (size_t n = 0; n < nodes_.size(); ++n) {
    metrics_.AddIngested(nodes_[n]->Ingest(now_, used_bytes[n], fed_[n]).data);
  }
  if (audit_ != nullptr) audit_->CheckMemoryAccounting(all_);

  PublishInfo();

  RuntimeSnapshot snap;
  Selection selected;
  for (size_t n = 0; n < nodes_.size(); ++n) {
    const NodeId node_id = static_cast<NodeId>(n);
    BuildNodeSnapshot(node_id, &snap);
    const Node::Grant grant = nodes_[n]->Schedule(now_, config_.cycle_length,
                                                  &snap, &selected);
    metrics_.AddSchedulerCost(grant.scheduler_cost_micros);
    // Each selected sub-query occupies one local core for the whole cycle.
    for (const SlotAssignment& slot : selected) {
      KLINK_CHECK(slot.query >= 0 && slot.query < num_queries());
      DeployedQuery& dq = queries_[static_cast<size_t>(slot.query)];
      const Query::Lane ops = NodeRange(dq.placement, node_id);
      context_.BeginCycle(grant.slot_budget_micros, grant.cost_multiplier,
                          now_);
      metrics_.AddCoreBusy(
          context_.RunRange(*dq.query, ops.begin, ops.end, this));
      metrics_.AddProcessed(context_.cycle_processed_events());
    }
  }
  if (audit_ != nullptr) audit_->CheckProgressMonotonicity(all_);

  now_ += config_.cycle_length;
}

void DistEngine::DeliverTransit() {
  while (!transit_.empty() && transit_.top().deliver_time <= now_) {
    const Transit& t = transit_.top();
    Query& q = *queries_[static_cast<size_t>(t.query_id)].query;
    q.op(t.op_index).input(t.event.stream).Push(t.event);
    transit_.pop();
  }
}

void DistEngine::Ship(QueryId query, int downstream, TimeMicros completed,
                      const std::vector<Event>& events) {
  for (const Event& e : events) {
    transit_.push(Transit{completed + config_.link_latency, transit_seq_++,
                          query, downstream, e});
  }
}

void DistEngine::PublishInfo() {
  // Each query's owning nodes publish their runtime information; remote
  // readers see it after link_latency (Sec. 4 forwarding). One range
  // collect per hosting node, in operator order.
  QueryInfo info;
  for (DeployedQuery& dq : queries_) {
    ForwardedQueryInfo fwd;
    fwd.published_at = now_;
    fwd.drain_cost_by_node.assign(static_cast<size_t>(config_.num_nodes),
                                  0.0);
    const int n = dq.query->num_operators();
    for (int begin = 0, end = 0; begin < n; begin = end) {
      const NodeId node = dq.placement[static_cast<size_t>(begin)];
      while (end < n && dq.placement[static_cast<size_t>(end)] == node) ++end;
      CollectQueryInfo(*dq.query, begin, end, &info);
      fwd.drain_cost_by_node[static_cast<size_t>(node)] =
          info.whole.drain_cost_micros;
      fwd.streams.insert(fwd.streams.end(), info.streams.begin(),
                         info.streams.end());
      if (info.upcoming_deadline != kNoTime &&
          (fwd.upcoming_deadline == kNoTime ||
           info.upcoming_deadline < fwd.upcoming_deadline)) {
        fwd.upcoming_deadline = info.upcoming_deadline;
      }
    }
    dq.channel.Publish(std::move(fwd));
    dq.channel.Compact(now_, config_.link_latency);
  }
}

void DistEngine::BuildNodeSnapshot(NodeId node_id, RuntimeSnapshot* snap) {
  snap->queries.clear();
  snap->queries.reserve(queries_.size());

  for (DeployedQuery& dq : queries_) {
    const Query::Lane ops = NodeRange(dq.placement, node_id);
    if (ops.begin == ops.end) continue;  // no presence on this node
    // Locally observable state is fresh: this node's operators only.
    QueryInfo& info = snap->queries.emplace_back();
    CollectQueryInfo(*dq.query, ops.begin, ops.end, &info);
    // Remote nodes' contributions come from the last forwarded record,
    // stale by link_latency — the information flow of Sec. 4. They merge
    // into the whole-query unit, the one unit of an unsharded query.
    const ForwardedQueryInfo* remote =
        dq.channel.Latest(now_, config_.link_latency);
    if (remote == nullptr) continue;
    // Prefer fresh local deadlines; fall back to the forwarded one when
    // this node hosts no windowed operator of the query.
    if (info.upcoming_deadline == kNoTime) {
      info.upcoming_deadline = remote->upcoming_deadline;
    }
    for (size_t nn = 0; nn < remote->drain_cost_by_node.size(); ++nn) {
      if (static_cast<NodeId>(nn) == node_id) continue;  // fresh above
      info.whole.drain_cost_micros += remote->drain_cost_by_node[nn];
    }
    // Stream progress of remote windowed operators.
    for (const StreamProgress& p : remote->streams) {
      if (dq.placement[static_cast<size_t>(p.op_index)] == node_id) {
        continue;  // already present with fresh local values
      }
      info.streams.push_back(p);
    }
    info.whole.streams_end = static_cast<int>(info.streams.size());
  }
}

Histogram DistEngine::AggregateSwmLatency() const {
  return MergeSinkLatency(all_, &SinkOperator::swm_latency);
}

Histogram DistEngine::AggregateMarkerLatency() const {
  return MergeSinkLatency(all_, &SinkOperator::marker_latency);
}

}  // namespace klink
