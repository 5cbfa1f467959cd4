#ifndef KLINK_QUERY_PIPELINE_BUILDER_H_
#define KLINK_QUERY_PIPELINE_BUILDER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/operators/aggregate_operator.h"
#include "src/operators/count_window_operator.h"
#include "src/operators/filter_operator.h"
#include "src/operators/join_operator.h"
#include "src/operators/map_operator.h"
#include "src/operators/reorder_operator.h"
#include "src/operators/session_window_operator.h"
#include "src/operators/watermark_generator_operator.h"
#include "src/operators/operator.h"
#include "src/query/query.h"
#include "src/window/window_assigner.h"

namespace klink {

class PipelineBuilder;

/// Shard configuration for a sharded keyed-operator region: `shards` lanes
/// are initially active; `max_shards` shard operators are constructed so a
/// live re-shard can scale the active count up to the ceiling without
/// changing the query topology (checkpoint layouts stay valid).
struct ShardSpec {
  int shards = 1;
  int max_shards = 1;
};

/// Ceiling of ShardSpec::max_shards. All max_shards shards are built up
/// front as operators and lanes, active or not, so this bounds the size
/// of a sharded query.
inline constexpr int kMaxShards = 64;

/// Handle to the head of a partially built chain; returned by builder
/// methods so pipelines compose fluently:
///
///   PipelineBuilder b("ysb");
///   b.Source("events", 1.0)
///       .Filter("view-filter", 0.8, FilterOperator::HashPassRate(0.33), 0.33)
///       .Map("project", 0.5)
///       .TumblingAggregate("count", 2.0, SecondsToMicros(3),
///                          AggregationKind::kCount)
///       .Sink("output", 0.5);
///   auto query = b.Build(/*id=*/0);
class BuilderStream {
 public:
  /// Appends a stateless transform.
  BuilderStream Map(std::string name, double cost_micros,
                    MapOperator::TransformFn transform = nullptr);

  /// Appends a predicate filter.
  BuilderStream Filter(std::string name, double cost_micros,
                       FilterOperator::PredicateFn keep,
                       double expected_pass_rate);

  /// Appends a tumbling-window aggregation. `offset` phase-shifts the
  /// window deadlines (Sec. 6.2.1 randomizes it per query).
  BuilderStream TumblingAggregate(std::string name, double cost_micros,
                                  DurationMicros window_size,
                                  AggregationKind kind,
                                  DurationMicros offset = 0);

  /// Appends a sliding-window aggregation.
  BuilderStream SlidingAggregate(std::string name, double cost_micros,
                                 DurationMicros window_size,
                                 DurationMicros slide, AggregationKind kind,
                                 DurationMicros offset = 0);

  /// Appends a session window (per-key, closes after `gap` inactivity).
  BuilderStream SessionWindow(std::string name, double cost_micros,
                              DurationMicros gap, AggregationKind kind);

  /// Appends a count-based window (fires every `count` events per key).
  BuilderStream CountWindow(std::string name, double cost_micros,
                            int64_t count, AggregationKind kind);

  /// Sharded variants of the window aggregations: the operator is hash-
  /// partitioned into spec.max_shards shard lanes (spec.shards initially
  /// active) between a partition exchange and a merge exchange, so shards
  /// drain concurrently on the thread-pool executor and keyed state can be
  /// re-partitioned live (see DESIGN.md "Sharded execution"). Results are
  /// byte-identical to the unsharded operator. At most one sharded region
  /// per query.
  BuilderStream ShardedTumblingAggregate(std::string name, double cost_micros,
                                         DurationMicros window_size,
                                         AggregationKind kind, ShardSpec spec,
                                         DurationMicros offset = 0);
  BuilderStream ShardedSlidingAggregate(std::string name, double cost_micros,
                                        DurationMicros window_size,
                                        DurationMicros slide,
                                        AggregationKind kind, ShardSpec spec,
                                        DurationMicros offset = 0);

  /// Appends an in-order-processing buffer (IOP, Sec. 2.1): downstream
  /// operators observe events sorted by event-time.
  BuilderStream Reorder(std::string name, double cost_micros);

  /// Appends a periodic watermark generator (Sec. 2.2 case ii); upstream
  /// watermarks are replaced by (max event-time - lag) heartbeats.
  BuilderStream GenerateWatermarks(std::string name, double cost_micros,
                                   DurationMicros period, DurationMicros lag);

  /// Appends an already-constructed operator (escape hatch).
  BuilderStream Then(std::unique_ptr<Operator> op);

  /// Terminates the chain with a sink. Call Build() afterwards.
  void Sink(std::string name, double cost_micros);

 private:
  friend class PipelineBuilder;
  BuilderStream(PipelineBuilder* builder, int tail) noexcept
      : builder_(builder), tail_(tail) {}

  PipelineBuilder* builder_;
  int tail_;  // index of the last operator in this chain
};

/// Assembles a Query from sources, transforms, windows, joins and one sink.
class PipelineBuilder {
 public:
  explicit PipelineBuilder(std::string query_name);
  ~PipelineBuilder();

  PipelineBuilder(const PipelineBuilder&) = delete;
  PipelineBuilder& operator=(const PipelineBuilder&) = delete;

  /// Per-query allowed-lateness horizon, applied at Build() to every
  /// time-windowed operator (including shard lanes) and the sink: fired
  /// panes are retained for `lateness` of watermark progress and late
  /// arrivals within the horizon emit retraction+update corrections
  /// (window/lateness.h). 0 (the default) keeps the strict drop policy.
  void SetAllowedLateness(DurationMicros lateness);

  /// Adds a source; each source becomes an ingestion point for generators.
  BuilderStream Source(std::string name, double cost_micros);

  /// Joins 2+ chains with a tumbling-window equi-join; inputs attach in
  /// the given order as join input streams 0..n-1.
  BuilderStream TumblingJoin(std::string name, double cost_micros,
                             DurationMicros window_size,
                             std::vector<BuilderStream> inputs,
                             DurationMicros offset = 0);

  /// Finalizes the query. Requires exactly one sink and every chain
  /// terminated. The builder is consumed.
  std::unique_ptr<Query> Build(QueryId id);

 private:
  friend class BuilderStream;

  int Append(std::unique_ptr<Operator> op);
  void Connect(int from, int to, int stream);
  /// Builds the partition -> shard aggregates -> merge region after
  /// `input`. The factory is invoked once per shard with the shard
  /// operator's name; its return type is what lets the re-shard
  /// controller treat every shard lane as a WindowAggregateOperator.
  BuilderStream ShardRegionImpl(
      const std::string& name, BuilderStream input, ShardSpec spec,
      const std::function<std::unique_ptr<WindowAggregateOperator>(
          const std::string&)>& make_shard);

  std::string query_name_;
  std::vector<std::unique_ptr<Operator>> operators_;
  std::vector<Query::Edge> edges_;
  Query::ShardRegion shard_region_;
  DurationMicros allowed_lateness_ = 0;
  bool has_sink_ = false;
};

}  // namespace klink

#endif  // KLINK_QUERY_PIPELINE_BUILDER_H_
