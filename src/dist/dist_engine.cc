#include "src/dist/dist_engine.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/runtime/snapshot.h"
#include "src/window/swm_tracker.h"

namespace klink {
namespace {

/// Emits into the downstream operator's local input queue; cross-node
/// edges are handled by the caller via a VectorEmitter + transit heap.
class DistEmitter final : public Emitter {
 public:
  DistEmitter(StreamQueue* local_queue, int stream)
      : local_queue_(local_queue), stream_(stream) {}

  void Emit(const Event& e) override {
    if (local_queue_ == nullptr) return;
    Event routed = e;
    routed.stream = stream_;
    local_queue_->Push(routed);
  }

 private:
  StreamQueue* local_queue_;
  int stream_;
};

}  // namespace

DistEngine::DistEngine(const DistEngineConfig& config,
                       const PolicyFactory& factory)
    : config_(config) {
  KLINK_CHECK_GE(config.num_nodes, 1);
  for (int i = 0; i < config.num_nodes; ++i) {
    std::unique_ptr<SchedulingPolicy> policy = factory(i);
    KLINK_CHECK(policy != nullptr);
    nodes_.push_back(
        std::make_unique<Node>(i, config.node, std::move(policy)));
  }
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
  Ingest();

  // Per-node memory accounting.
  for (auto& node : nodes_) {
    node->memory().Update(NodeMemoryUsage(node->id()));
  }

  PublishInfo();

  const double r = static_cast<double>(config_.cycle_length);
  RuntimeSnapshot snap;
  Selection selected;
  for (auto& node : nodes_) {
    BuildNodeSnapshot(node->id(), &snap);
    const double sched_cost = node->policy().EvaluationCostMicros(snap);
    metrics_.AddSchedulerCost(sched_cost);
    const double onset = config_.pressure_onset_fraction;
    const double stress =
        onset >= 1.0 ? 0.0
                     : std::clamp((node->memory().utilization() - onset) /
                                      (1.0 - onset),
                                  0.0, 1.0);
    const double multiplier = 1.0 + config_.memory_pressure_penalty * stress;
    // Strict cycle-grained quanta, as in Engine::RunCycle: each selected
    // sub-query occupies one local core for the whole cycle.
    selected.Clear();
    node->policy().SelectQueries(snap, node->config().num_cores, &selected);
    const double budget = std::max(
        0.0, r - sched_cost / static_cast<double>(node->config().num_cores));
    for (SlotAssignment& slot : selected) {
      slot.budget_micros = budget * slot.budget_fraction;
      const double consumed = ExecuteQueryOnNode(
          queries_[static_cast<size_t>(slot.query)], node->id(),
          slot.budget_micros, multiplier, now_);
      metrics_.AddCoreBusy(consumed);
    }
    metrics_.AddCoreAvailable(static_cast<double>(node->config().num_cores) *
                              r);
  }

  now_ += config_.cycle_length;
}

void DistEngine::DeliverTransit() {
  while (!transit_.empty() && transit_.top().deliver_time <= now_) {
    const Transit& t = transit_.top();
    Query& q = *queries_[static_cast<size_t>(t.query_id)].query;
    Event e = t.event;
    e.stream = t.stream;
    q.op(t.op_index).input(t.stream).Push(e);
    transit_.pop();
  }
}

void DistEngine::Ingest() {
  for (DeployedQuery& dq : queries_) {
    if (dq.feed == nullptr || now_ < dq.query->deploy_time()) continue;
    // Backpressure of the node hosting the sources stalls this query's
    // ingestion (sources sit in the first placement segment).
    const NodeId source_node = dq.placement.empty() ? 0 : dq.placement[0];
    Node& host = *nodes_[static_cast<size_t>(source_node)];
    if (host.memory().backpressured()) continue;
    const int64_t budget =
        host.config().memory_capacity_bytes - NodeMemoryUsage(source_node);
    if (budget <= 0) continue;
    metrics_.AddIngested(
        feed_ingest_.Poll(*dq.feed, now_, budget, *dq.query).data);
  }
}

void DistEngine::PublishInfo() {
  // Each query's owning nodes publish their runtime information; remote
  // readers see it after link_latency (Sec. 4 forwarding).
  for (DeployedQuery& dq : queries_) {
    QueryInfo info;
    CollectQueryInfo(*dq.query, now_, &info);
    ForwardedQueryInfo fwd;
    fwd.published_at = now_;
    fwd.streams = info.streams;
    fwd.upcoming_deadline = info.upcoming_deadline;
    // Decompose the drain cost per node from the per-operator arrays.
    const int n = dq.query->num_operators();
    std::vector<double> path_cost(static_cast<size_t>(n), 0.0);
    for (int i = n - 1; i >= 0; --i) {
      const int down = dq.query->edge(i).downstream;
      const double tail =
          down == -1 ? 0.0 : path_cost[static_cast<size_t>(down)];
      path_cost[static_cast<size_t>(i)] =
          info.op_cost[static_cast<size_t>(i)] +
          info.op_selectivity[static_cast<size_t>(i)] * tail;
    }
    fwd.drain_cost_by_node.assign(static_cast<size_t>(config_.num_nodes),
                                  0.0);
    for (int i = 0; i < n; ++i) {
      fwd.drain_cost_by_node[static_cast<size_t>(
          dq.placement[static_cast<size_t>(i)])] +=
          static_cast<double>(info.op_queued[static_cast<size_t>(i)]) *
          path_cost[static_cast<size_t>(i)];
    }
    dq.channel.Publish(std::move(fwd));
    dq.channel.Compact(now_, config_.link_latency);
  }
}

void DistEngine::BuildNodeSnapshot(NodeId node_id, RuntimeSnapshot* snap) {
  Node& node = *nodes_[static_cast<size_t>(node_id)];
  snap->now = now_;
  snap->memory_utilization = node.memory().utilization();
  snap->backpressured = node.memory().backpressured();
  snap->queries.clear();
  snap->queries.reserve(queries_.size());

  for (DeployedQuery& dq : queries_) {
    Query& q = *dq.query;
    const int n = q.num_operators();
    QueryInfo info;
    info.id = q.id();
    info.query = &q;
    info.deploy_time = q.deploy_time();
    info.op_queued.assign(static_cast<size_t>(n), 0);
    info.op_selectivity.assign(static_cast<size_t>(n), 1.0);
    info.op_cost.assign(static_cast<size_t>(n), 0.0);
    info.op_windowed.assign(static_cast<size_t>(n), 0);
    info.op_partial.assign(static_cast<size_t>(n), 0);

    // Locally observable state: only this node's operators.
    bool has_local_op = false;
    for (int i = 0; i < n; ++i) {
      const size_t idx = static_cast<size_t>(i);
      const Operator& op = q.op(i);
      info.op_selectivity[idx] = op.selectivity();
      info.op_cost[idx] = op.cost_per_event();
      info.op_windowed[idx] = op.IsWindowed() ? 1 : 0;
      info.op_partial[idx] = op.SupportsPartialComputation() ? 1 : 0;
      if (dq.placement[idx] != node_id) continue;
      has_local_op = true;
      info.op_queued[idx] = op.QueuedEvents();
      info.queued_events += info.op_queued[idx];
      info.memory_bytes += op.MemoryBytes();
      for (int s = 0; s < op.num_inputs(); ++s) {
        const TimeMicros oldest = op.input(s).OldestIngestTime();
        if (oldest == kNoTime) continue;
        info.oldest_ingest = info.oldest_ingest == kNoTime
                                 ? oldest
                                 : std::min(info.oldest_ingest, oldest);
      }
      if (op.IsWindowed()) {
        const TimeMicros dl = op.UpcomingDeadline();
        if (dl != kNoTime &&
            (info.upcoming_deadline == kNoTime || dl < info.upcoming_deadline)) {
          info.upcoming_deadline = dl;  // fresh local deadline
        }
      }
      if (const SwmTracker* tracker = op.swm_tracker()) {
        // Windowed operator hosted here: fresh progress.
        for (int s = 0; s < tracker->num_streams(); ++s) {
          const SwmTracker::StreamStats& st = tracker->stream(s);
          StreamProgress p;
          p.op_index = i;
          p.stream = s;
          p.upcoming_deadline = op.UpcomingDeadline();
          p.deadline_period = op.DeadlinePeriod();
          p.epoch = st.epoch;
          p.current_mu = st.current_delays.mean();
          p.current_chi = st.current_delays.mean_sq();
          p.current_count = st.current_delays.count();
          p.last_mu = st.last_mu;
          p.last_chi = st.last_chi;
          p.has_finalized_epoch = st.has_finalized_epoch;
          p.last_sweep_ingest = st.last_sweep_ingest;
          p.last_swept_deadline = st.last_swept_deadline;
          info.streams.push_back(p);
        }
      }
    }
    if (!has_local_op) continue;  // query has no presence on this node

    // Local drain cost is computed fresh from this node's queues; remote
    // nodes' contributions come from the last forwarded record (stale by
    // link_latency) — the information flow of Sec. 4.
    std::vector<double> path_cost(static_cast<size_t>(n), 0.0);
    for (int i = n - 1; i >= 0; --i) {
      const int down = q.edge(i).downstream;
      const double tail =
          down == -1 ? 0.0 : path_cost[static_cast<size_t>(down)];
      path_cost[static_cast<size_t>(i)] =
          info.op_cost[static_cast<size_t>(i)] +
          info.op_selectivity[static_cast<size_t>(i)] * tail;
    }
    double drain = 0.0;
    for (int i = 0; i < n; ++i) {
      if (dq.placement[static_cast<size_t>(i)] != node_id) continue;
      drain += static_cast<double>(info.op_queued[static_cast<size_t>(i)]) *
               path_cost[static_cast<size_t>(i)];
    }
    const ForwardedQueryInfo* remote =
        dq.channel.Latest(now_, config_.link_latency);
    if (remote != nullptr) {
      // Prefer fresh local deadlines; fall back to the forwarded one when
      // this node hosts no windowed operator of the query.
      if (info.upcoming_deadline == kNoTime) {
        info.upcoming_deadline = remote->upcoming_deadline;
      }
      for (size_t nn = 0; nn < remote->drain_cost_by_node.size(); ++nn) {
        if (static_cast<NodeId>(nn) == node_id) continue;  // fresh above
        drain += remote->drain_cost_by_node[nn];
      }
      // Stream progress of remote windowed operators.
      for (const StreamProgress& p : remote->streams) {
        if (dq.placement[static_cast<size_t>(p.op_index)] == node_id) {
          continue;  // already present with fresh local values
        }
        info.streams.push_back(p);
      }
    }
    info.drain_cost_micros = drain;

    // Unit cost and HR rate derive from static-ish per-op knowledge.
    double sel_product = 1.0, cost_sum = 0.0;
    for (int i = 0; i < n; ++i) {
      sel_product *=
          std::clamp(info.op_selectivity[static_cast<size_t>(i)], 0.0, 1.0);
      cost_sum += info.op_cost[static_cast<size_t>(i)];
    }
    info.output_rate = cost_sum <= 0.0 ? 0.0 : sel_product / cost_sum;
    info.unit_cost_micros = cost_sum;
    snap->queries.push_back(std::move(info));
  }
}

double DistEngine::ExecuteQueryOnNode(DeployedQuery& dq, NodeId node_id,
                                      double budget_micros,
                                      double cost_multiplier,
                                      TimeMicros cycle_start) {
  Query& q = *dq.query;
  double consumed = 0.0;
  bool progressed = true;
  int64_t processed = 0;
  while (progressed) {
    progressed = false;
    for (int i = 0; i < q.num_operators(); ++i) {
      if (dq.placement[static_cast<size_t>(i)] != node_id) continue;
      Operator& op = q.op(i);
      const Query::Edge& edge = q.edge(i);
      StreamQueue* local_queue = nullptr;
      bool remote_edge = false;
      if (edge.downstream != -1) {
        if (dq.placement[static_cast<size_t>(edge.downstream)] == node_id) {
          local_queue =
              &q.op(edge.downstream).input(edge.downstream_stream);
        } else {
          remote_edge = true;
        }
      }
      const double cost =
          std::max(0.01, op.cost_per_event() * cost_multiplier);
      while (consumed + cost <= budget_micros) {
        int best = -1;
        TimeMicros best_time = 0;
        for (int s = 0; s < op.num_inputs(); ++s) {
          if (op.input(s).empty()) continue;
          const TimeMicros t = op.input(s).Front().ingest_time;
          if (best == -1 || t < best_time) {
            best = s;
            best_time = t;
          }
        }
        if (best == -1) break;
        Event e = op.input(best).Pop();
        e.stream = best;
        consumed += cost;
        const TimeMicros now = cycle_start + static_cast<TimeMicros>(consumed);
        if (remote_edge) {
          // Collect outputs and ship them over the link.
          VectorEmitter buffer;
          op.Process(e, now, buffer);
          for (const Event& out : buffer.events) {
            transit_.push(Transit{now + config_.link_latency, transit_seq_++,
                                  q.id(), edge.downstream,
                                  edge.downstream_stream, out});
          }
        } else {
          DistEmitter emitter(local_queue, edge.downstream_stream);
          op.Process(e, now, emitter);
        }
        ++processed;
        progressed = true;
      }
      if (consumed + 0.01 > budget_micros) {
        progressed = false;
        break;
      }
    }
  }
  metrics_.AddProcessed(processed);
  return consumed;
}

int64_t DistEngine::NodeMemoryUsage(NodeId node_id) const {
  int64_t total = 0;
  for (const DeployedQuery& dq : queries_) {
    for (int i = 0; i < dq.query->num_operators(); ++i) {
      if (dq.placement[static_cast<size_t>(i)] == node_id) {
        total += dq.query->op(i).MemoryBytes();
      }
    }
  }
  return total;
}

Histogram DistEngine::AggregateSwmLatency() const {
  Histogram h;
  for (const DeployedQuery& dq : queries_) {
    h.Merge(dq.query->sink().swm_latency());
  }
  return h;
}

Histogram DistEngine::AggregateMarkerLatency() const {
  Histogram h;
  for (const DeployedQuery& dq : queries_) {
    h.Merge(dq.query->sink().marker_latency());
  }
  return h;
}

}  // namespace klink
