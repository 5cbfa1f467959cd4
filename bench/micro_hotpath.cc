// Microbenchmarks of the batched hot path (google-benchmark): ring-buffer
// queue transfer (per-element Push/Pop vs. PushBatch/PopBatch), buffered
// emitter routing, and the engine's batched ExecutionContext::RunQuery
// draining a filter-map-aggregate pipeline.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/event/stream_queue.h"
#include "src/operators/aggregate_operator.h"
#include "src/operators/filter_operator.h"
#include "src/operators/map_operator.h"
#include "src/query/pipeline_builder.h"
#include "src/runtime/batch_emitter.h"
#include "src/runtime/execution_context.h"
#include "src/window/window_assigner.h"

namespace klink {
namespace {

constexpr int64_t kQueueBatch = 256;

std::vector<Event> MakeEvents(int64_t n) {
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    events.push_back(MakeDataEvent(i * 100, i * 100 + 50,
                                   static_cast<uint64_t>(i % 64), 1.0));
  }
  return events;
}

/// ---- queue transfer -------------------------------------------------

void BM_QueueScalarTransfer(benchmark::State& state) {
  const auto events = MakeEvents(kQueueBatch);
  StreamQueue q;
  for (auto _ : state) {
    for (const Event& e : events) q.Push(e);
    while (!q.empty()) benchmark::DoNotOptimize(q.Pop());
  }
  state.SetItemsProcessed(state.iterations() * kQueueBatch);
}
BENCHMARK(BM_QueueScalarTransfer);

void BM_QueueBatchTransfer(benchmark::State& state) {
  const auto events = MakeEvents(kQueueBatch);
  std::vector<Event> out(static_cast<size_t>(kQueueBatch));
  StreamQueue q;
  for (auto _ : state) {
    q.PushBatch(events.data(), kQueueBatch);
    benchmark::DoNotOptimize(q.PopBatch(out.data(), kQueueBatch));
  }
  state.SetItemsProcessed(state.iterations() * kQueueBatch);
}
BENCHMARK(BM_QueueBatchTransfer);

/// ---- emitter routing ------------------------------------------------

void BM_EmitterBatchRouting(benchmark::State& state) {
  const auto events = MakeEvents(kQueueBatch);
  StreamQueue downstream;
  std::vector<Event> drain(static_cast<size_t>(kQueueBatch));
  std::vector<Event> scratch;
  for (auto _ : state) {
    BatchEmitter emitter(&downstream, /*stream=*/0, &scratch);
    emitter.EmitRun(events.data(), kQueueBatch);
    emitter.Flush();
    downstream.PopBatch(drain.data(), kQueueBatch);
  }
  state.SetItemsProcessed(state.iterations() * kQueueBatch);
}
BENCHMARK(BM_EmitterBatchRouting);

/// ---- full drain: batched RunQuery -----------------------------------

constexpr int64_t kDrainEvents = 20000;
constexpr double kBudget = 1.0e9;  // ample: the drain empties the queues
constexpr TimeMicros kCycleStart = 0;

std::unique_ptr<Query> MakeDrainQuery() {
  PipelineBuilder b("drain");
  b.Source("src", 0.1)
      .Filter("f", 0.1, FilterOperator::HashPassRate(0.8), 0.8)
      .Map("m", 0.1, [](Event& e) { e.key %= 16; })
      .TumblingAggregate("agg", 0.2, SecondsToMicros(1),
                         AggregationKind::kSum)
      .Sink("out", 0.1);
  return b.Build(0);
}

void FillSource(Query& query, int64_t n) {
  StreamQueue& in = query.sources()[0]->input(0);
  TimeMicros t = 0;
  for (int64_t i = 0; i < n; ++i) {
    t += 100;
    if (i % 500 == 499) {
      in.Push(MakeWatermark(t, t));
    } else {
      in.Push(MakeDataEvent(t, t + 50, static_cast<uint64_t>(i % 256), 1.0));
    }
  }
}

void BM_DrainBatched(benchmark::State& state) {
  ExecutionContext context(/*slot=*/0);
  for (auto _ : state) {
    state.PauseTiming();
    auto query = MakeDrainQuery();
    FillSource(*query, kDrainEvents);
    context.BeginCycle(kBudget, 1.0, kCycleStart);
    state.ResumeTiming();
    benchmark::DoNotOptimize(context.RunQuery(*query));
  }
  state.SetItemsProcessed(state.iterations() * kDrainEvents);
}
BENCHMARK(BM_DrainBatched)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace klink

BENCHMARK_MAIN();
