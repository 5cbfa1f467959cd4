#include "src/query/pipeline_builder.h"

#include <utility>

#include "src/common/check.h"
#include "src/operators/exchange_operator.h"
#include "src/operators/sink_operator.h"
#include "src/operators/source_operator.h"

namespace klink {

namespace {
/// Virtual cost per element of the exchange operators: routing is cheap
/// relative to keyed-window work, so the partition can feed many shards
/// within one cycle budget.
constexpr double kExchangeCostMicros = 0.05;
}  // namespace

BuilderStream BuilderStream::Map(std::string name, double cost_micros,
                                 MapOperator::TransformFn transform) {
  return Then(std::make_unique<MapOperator>(std::move(name), cost_micros,
                                            std::move(transform)));
}

BuilderStream BuilderStream::Filter(std::string name, double cost_micros,
                                    FilterOperator::PredicateFn keep,
                                    double expected_pass_rate) {
  return Then(std::make_unique<FilterOperator>(
      std::move(name), cost_micros, std::move(keep), expected_pass_rate));
}

BuilderStream BuilderStream::TumblingAggregate(std::string name,
                                               double cost_micros,
                                               DurationMicros window_size,
                                               AggregationKind kind,
                                               DurationMicros offset) {
  return Then(std::make_unique<WindowAggregateOperator>(
      std::move(name), cost_micros, MakeTumblingWindow(window_size, offset),
      kind));
}

BuilderStream BuilderStream::SlidingAggregate(std::string name,
                                              double cost_micros,
                                              DurationMicros window_size,
                                              DurationMicros slide,
                                              AggregationKind kind,
                                              DurationMicros offset) {
  return Then(std::make_unique<WindowAggregateOperator>(
      std::move(name), cost_micros,
      MakeSlidingWindow(window_size, slide, offset), kind));
}

BuilderStream BuilderStream::SessionWindow(std::string name,
                                           double cost_micros,
                                           DurationMicros gap,
                                           AggregationKind kind) {
  return Then(std::make_unique<SessionWindowOperator>(std::move(name),
                                                      cost_micros, gap, kind));
}

BuilderStream BuilderStream::CountWindow(std::string name, double cost_micros,
                                         int64_t count, AggregationKind kind) {
  return Then(std::make_unique<CountWindowOperator>(std::move(name),
                                                    cost_micros, count, kind));
}

BuilderStream BuilderStream::ShardedTumblingAggregate(
    std::string name, double cost_micros, DurationMicros window_size,
    AggregationKind kind, ShardSpec spec, DurationMicros offset) {
  return builder_->ShardRegionImpl(
      name, *this, spec, [&](const std::string& shard_name) {
        return std::make_unique<WindowAggregateOperator>(
            shard_name, cost_micros, MakeTumblingWindow(window_size, offset),
            kind);
      });
}

BuilderStream BuilderStream::ShardedSlidingAggregate(
    std::string name, double cost_micros, DurationMicros window_size,
    DurationMicros slide, AggregationKind kind, ShardSpec spec,
    DurationMicros offset) {
  return builder_->ShardRegionImpl(
      name, *this, spec, [&](const std::string& shard_name) {
        return std::make_unique<WindowAggregateOperator>(
            shard_name, cost_micros,
            MakeSlidingWindow(window_size, slide, offset), kind);
      });
}

BuilderStream BuilderStream::Reorder(std::string name, double cost_micros) {
  return Then(std::make_unique<ReorderOperator>(std::move(name), cost_micros));
}

BuilderStream BuilderStream::GenerateWatermarks(std::string name,
                                                double cost_micros,
                                                DurationMicros period,
                                                DurationMicros lag) {
  return Then(std::make_unique<WatermarkGeneratorOperator>(
      std::move(name), cost_micros, period, lag));
}

BuilderStream BuilderStream::Then(std::unique_ptr<Operator> op) {
  const int idx = builder_->Append(std::move(op));
  builder_->Connect(tail_, idx, /*stream=*/0);
  return BuilderStream(builder_, idx);
}

void BuilderStream::Sink(std::string name, double cost_micros) {
  KLINK_CHECK(!builder_->has_sink_);
  const int idx = builder_->Append(
      std::make_unique<SinkOperator>(std::move(name), cost_micros));
  builder_->Connect(tail_, idx, /*stream=*/0);
  builder_->has_sink_ = true;
}

PipelineBuilder::PipelineBuilder(std::string query_name)
    : query_name_(std::move(query_name)) {}

PipelineBuilder::~PipelineBuilder() = default;

BuilderStream PipelineBuilder::Source(std::string name, double cost_micros) {
  const int idx =
      Append(std::make_unique<SourceOperator>(std::move(name), cost_micros));
  return BuilderStream(this, idx);
}

BuilderStream PipelineBuilder::TumblingJoin(std::string name,
                                            double cost_micros,
                                            DurationMicros window_size,
                                            std::vector<BuilderStream> inputs,
                                            DurationMicros offset) {
  KLINK_CHECK_GE(inputs.size(), 2u);
  const int idx = Append(std::make_unique<WindowJoinOperator>(
      std::move(name), cost_micros, MakeTumblingWindow(window_size, offset),
      static_cast<int>(inputs.size())));
  for (size_t s = 0; s < inputs.size(); ++s) {
    KLINK_CHECK(inputs[s].builder_ == this);
    Connect(inputs[s].tail_, idx, static_cast<int>(s));
  }
  return BuilderStream(this, idx);
}

BuilderStream PipelineBuilder::ShardRegionImpl(
    const std::string& name, BuilderStream input, ShardSpec spec,
    const std::function<std::unique_ptr<WindowAggregateOperator>(
        const std::string&)>& make_shard) {
  KLINK_CHECK_EQ(shard_region_.max_shards, 0);  // one region per query
  KLINK_CHECK_GE(spec.shards, 1);
  KLINK_CHECK_GE(spec.max_shards, spec.shards);
  KLINK_CHECK_LE(spec.max_shards, kMaxShards);
  KLINK_CHECK(input.builder_ == this);

  auto partition = std::make_unique<PartitionExchangeOperator>(
      name + "/part", kExchangeCostMicros, spec.shards, spec.max_shards);
  PartitionExchangeOperator* router = partition.get();
  const int partition_idx = Append(std::move(partition));
  Connect(input.tail_, partition_idx, /*stream=*/0);

  const int shard_begin = static_cast<int>(operators_.size());
  std::vector<StreamQueue*> targets;
  for (int s = 0; s < spec.max_shards; ++s) {
    std::unique_ptr<WindowAggregateOperator> shard =
        make_shard(name + "/s" + std::to_string(s));
    targets.push_back(&shard->input());
    Append(std::move(shard));
  }
  const int shard_end = static_cast<int>(operators_.size());
  // The partition fans out to every shard's input through its inline
  // router, not the Edge graph. Its one Edge, to the first shard, lets the
  // snapshot's path-cost walk see the downstream drain cost; the emitter
  // never uses it.
  router->SetTargets(std::move(targets));
  Connect(partition_idx, shard_begin, /*stream=*/0);

  const int merge_idx = Append(std::make_unique<MergeExchangeOperator>(
      name + "/merge", kExchangeCostMicros, spec.max_shards));
  for (int s = 0; s < spec.max_shards; ++s) {
    Connect(shard_begin + s, merge_idx, /*stream=*/s);
  }

  shard_region_.shard_begin = shard_begin;
  shard_region_.shard_end = shard_end;
  shard_region_.max_shards = spec.max_shards;
  shard_region_.partition_op = partition_idx;
  shard_region_.merge_op = merge_idx;
  return BuilderStream(this, merge_idx);
}

int PipelineBuilder::Append(std::unique_ptr<Operator> op) {
  operators_.push_back(std::move(op));
  edges_.push_back(Query::Edge{});
  return static_cast<int>(operators_.size()) - 1;
}

void PipelineBuilder::Connect(int from, int to, int stream) {
  KLINK_CHECK(from >= 0 && from < static_cast<int>(operators_.size()));
  KLINK_CHECK_GT(to, from);  // maintain topological (insertion) order
  Query::Edge& e = edges_[static_cast<size_t>(from)];
  KLINK_CHECK_EQ(e.downstream, -1);  // single consumer per operator
  e.downstream = to;
  e.downstream_stream = stream;
}

void PipelineBuilder::SetAllowedLateness(DurationMicros lateness) {
  KLINK_CHECK_GE(lateness, 0);
  allowed_lateness_ = lateness;
}

std::unique_ptr<Query> PipelineBuilder::Build(QueryId id) {
  KLINK_CHECK(has_sink_);
  // The horizon applies uniformly: every windowed operator retains fired
  // panes for the same span and the sink's converging log finalizes on the
  // same predicate, so corrections always reach the sink before their
  // target entry finalizes.
  if (allowed_lateness_ > 0) {
    for (auto& op : operators_) {
      if (auto* agg = dynamic_cast<WindowAggregateOperator*>(op.get())) {
        agg->SetAllowedLateness(allowed_lateness_);
      } else if (auto* sess = dynamic_cast<SessionWindowOperator*>(op.get())) {
        sess->SetAllowedLateness(allowed_lateness_);
      } else if (auto* sink = dynamic_cast<SinkOperator*>(op.get())) {
        sink->SetAllowedLateness(allowed_lateness_);
      }
    }
  }
  return std::make_unique<Query>(id, std::move(query_name_),
                                 std::move(operators_), std::move(edges_),
                                 std::move(shard_region_));
}

}  // namespace klink
