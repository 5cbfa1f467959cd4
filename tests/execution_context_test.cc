// Drain order of ExecutionContext::RunRange on multi-input operators.
//
// RunRange selects up to 512 elements of an operator's inputs first and
// processes them afterwards in one ProcessBatch call. The reference below
// is the per-element loop it replaced: pick the input with the earliest
// front ingest time (lowest stream on ties) among those not blocked behind
// a checkpoint barrier, pop, process, repeat. Both must pop the same
// elements in the same order at the same virtual times, so every output,
// every barrier alignment, the consumed budget and the leftover queues
// agree — for 2- and 3-input joins, equal ingest times across inputs,
// barriers that reach one input well before the others, budgets that end
// mid-batch and exactly at 512 elements, and outputs that leave the range
// through an Egress.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/common/serialize.h"
#include "src/operators/join_operator.h"
#include "src/query/pipeline_builder.h"
#include "src/query/query.h"
#include "src/runtime/batch_emitter.h"
#include "src/runtime/execution_context.h"

namespace klink {
namespace {

/// The per-element drain loop, kept as the reference for RunRange's pop
/// order and virtual-time accounting. Exchange operators' inline emitters
/// are left out: the queries here have none.
double ScalarRunRange(Query& query, int begin, int end, double budget,
                      double cost_multiplier, TimeMicros cycle_start,
                      Egress* egress, int64_t* processed) {
  double consumed = 0.0;
  bool progressed = true;
  std::vector<Event> scratch;
  while (progressed) {
    progressed = false;
    for (int i = begin; i < end; ++i) {
      Operator& op = query.op(i);
      const Query::Edge& edge = query.edge(i);
      const bool leaves = egress != nullptr && edge.downstream >= end;
      StreamQueue* downstream_queue =
          edge.downstream == -1
              ? nullptr
              : &query.op(edge.downstream).input(edge.downstream_stream);
      BatchEmitter emitter(downstream_queue, edge.downstream_stream, &scratch);
      const double cost = std::max(0.01, op.cost_per_event() * cost_multiplier);
      while (consumed + cost <= budget) {
        uint64_t min_epoch = op.last_barrier_epoch(0);
        for (int s = 1; s < op.num_inputs(); ++s) {
          min_epoch = std::min(min_epoch, op.last_barrier_epoch(s));
        }
        int best = -1;
        TimeMicros best_time = 0;
        for (int s = 0; s < op.num_inputs(); ++s) {
          if (op.input(s).empty()) continue;
          if (op.last_barrier_epoch(s) > min_epoch) continue;  // blocked
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
        op.Process(e, now, emitter);
        if (leaves && !scratch.empty()) {
          egress->Ship(query.id(), edge.downstream, now, scratch);
          scratch.clear();
        }
        ++*processed;
        progressed = true;
      }
      emitter.Flush();
      if (consumed + 0.01 > budget) {
        progressed = false;
        break;
      }
    }
  }
  return consumed;
}

/// Records every barrier alignment with the operator's full state at that
/// instant, so an alignment one element early or late shows.
class RecordingObserver final : public BarrierObserver {
 public:
  void OnBarrierAligned(Operator& op, uint64_t epoch) override {
    StateWriter w;
    op.Serialize(w);
    const std::vector<uint8_t> bytes = w.TakeBytes();
    records.push_back({op.name(), epoch, op.processed_data_count(),
                       Fnv1aBytes(bytes.data(), bytes.size())});
  }
  std::vector<std::tuple<std::string, uint64_t, int64_t, uint64_t>> records;
};

/// Records every shipment of outputs across the range's end.
class RecordingEgress final : public Egress {
 public:
  struct Shipment {
    int downstream;
    TimeMicros completed;
    std::vector<Event> events;
  };
  void Ship(QueryId /*query*/, int downstream, TimeMicros completed,
            const std::vector<Event>& events) override {
    shipments.push_back({downstream, completed, events});
  }
  std::vector<Shipment> shipments;
};

void ExpectSameEvent(const Event& a, const Event& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.stream, b.stream);
  EXPECT_EQ(a.event_time, b.event_time);
  EXPECT_EQ(a.ingest_time, b.ingest_time);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.value, b.value);  // exact: bitwise determinism
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  EXPECT_EQ(a.swm, b.swm);
}

/// Pops both queues empty, asserting equal contents.
void ExpectSameQueue(StreamQueue& a, StreamQueue& b, const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.bytes(), b.bytes());
  EXPECT_EQ(a.OldestIngestTime(), b.OldestIngestTime());
  int64_t i = 0;
  while (!a.empty()) {
    SCOPED_TRACE("element " + std::to_string(i++));
    ExpectSameEvent(a.Pop(), b.Pop());
  }
}

/// Sources feeding an n-input tumbling join feeding a sink. Operator
/// indices: sources 0..n-1, join n, sink n+1.
std::unique_ptr<Query> JoinQuery(int num_inputs) {
  PipelineBuilder b("join");
  std::vector<BuilderStream> inputs;
  for (int s = 0; s < num_inputs; ++s) {
    inputs.push_back(b.Source("src" + std::to_string(s), 0.6));
  }
  b.TumblingJoin("join", 1.0, MillisToMicros(1), inputs).Sink("out", 0.5);
  return b.Build(0);
}

/// Per-input element sequences. Ingest times advance in 10 us steps shared
/// by every input, so most picks are ties the stream index must break; a
/// few inputs lag by one step now and then. Watermarks every 25 steps,
/// latency markers every 40, and checkpoint barriers that reach input s
/// 9*s steps after input 0 — input 0 then sits blocked while the others
/// feed several elements each.
std::vector<std::vector<Event>> MakeInputs(int num_inputs, int steps,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Event>> inputs(static_cast<size_t>(num_inputs));
  uint64_t epoch_of[8] = {0};
  for (int k = 0; k < steps; ++k) {
    for (int s = 0; s < num_inputs; ++s) {
      std::vector<Event>& in = inputs[static_cast<size_t>(s)];
      const TimeMicros t = 1000 + 10 * k + (rng.NextInt(0, 5) == 0 ? 10 : 0);
      if (k % 150 == 20 + 9 * s) {
        in.push_back(MakeCheckpointBarrier(++epoch_of[s], t));
      }
      if (k % 25 == 24) {
        in.push_back(MakeWatermark(t - 300, t));
      } else if (k % 40 == 7) {
        in.push_back(MakeLatencyMarker(t, t));
      } else {
        in.push_back(MakeDataEvent(t - rng.NextInt(0, 200), t,
                                   static_cast<uint64_t>(rng.NextInt(0, 6)),
                                   rng.NextDouble() * 10.0,
                                   static_cast<uint32_t>(rng.NextInt(16, 96))));
      }
    }
  }
  return inputs;
}

struct Budget {
  double micros;
  double cost_multiplier;
};

/// Drains the same query and inputs through RunRange and through the
/// reference loop, cycle by cycle, and asserts they agree.
void CheckDrainOrder(int num_inputs, bool join_only, bool with_egress,
                     const std::vector<Budget>& budgets) {
  SCOPED_TRACE("inputs " + std::to_string(num_inputs) +
               (join_only ? ", join only" : ", sources and join") +
               (with_egress ? ", egress" : ""));
  std::unique_ptr<Query> batched = JoinQuery(num_inputs);
  std::unique_ptr<Query> scalar = JoinQuery(num_inputs);
  const int join = num_inputs;
  ASSERT_NE(dynamic_cast<WindowJoinOperator*>(&batched->op(join)), nullptr);
  const int begin = join_only ? join : 0;
  const int end = join + 1;  // outputs leave the range at the sink

  RecordingObserver batched_barriers;
  RecordingObserver scalar_barriers;
  for (int i = 0; i < end; ++i) {
    batched->op(i).SetBarrierObserver(&batched_barriers);
    scalar->op(i).SetBarrierObserver(&scalar_barriers);
  }
  const auto inputs = MakeInputs(num_inputs, 1500, 17 + num_inputs);
  for (int s = 0; s < num_inputs; ++s) {
    const std::vector<Event>& in = inputs[static_cast<size_t>(s)];
    const int op = join_only ? join : s;
    const int stream = join_only ? s : 0;
    batched->op(op).input(stream).PushBatch(in.data(),
                                            static_cast<int64_t>(in.size()));
    scalar->op(op).input(stream).PushBatch(in.data(),
                                           static_cast<int64_t>(in.size()));
  }

  RecordingEgress batched_egress;
  RecordingEgress scalar_egress;
  ExecutionContext context(/*slot=*/0);
  TimeMicros cycle_start = 50000;
  for (size_t c = 0; c < budgets.size(); ++c) {
    SCOPED_TRACE("cycle " + std::to_string(c));
    const Budget& b = budgets[c];
    context.BeginCycle(b.micros, b.cost_multiplier, cycle_start);
    const double consumed = context.RunRange(
        *batched, begin, end, with_egress ? &batched_egress : nullptr);
    int64_t scalar_processed = 0;
    const double scalar_consumed = ScalarRunRange(
        *scalar, begin, end, b.micros, b.cost_multiplier, cycle_start,
        with_egress ? &scalar_egress : nullptr, &scalar_processed);
    EXPECT_EQ(consumed, scalar_consumed);  // exact: same float additions
    EXPECT_EQ(context.cycle_processed_events(), scalar_processed);
    for (int i = begin; i < end; ++i) {
      const Operator& a = batched->op(i);
      const Operator& r = scalar->op(i);
      EXPECT_EQ(a.processed_data_count(), r.processed_data_count()) << i;
      EXPECT_EQ(a.emitted_data_count(), r.emitted_data_count()) << i;
      EXPECT_EQ(a.forwarded_watermarks(), r.forwarded_watermarks()) << i;
      EXPECT_EQ(a.StateBytes(), r.StateBytes()) << i;
      EXPECT_EQ(a.QueuedEvents(), r.QueuedEvents()) << i;
      for (int s = 0; s < a.num_inputs(); ++s) {
        EXPECT_EQ(a.last_barrier_epoch(s), r.last_barrier_epoch(s)) << i;
      }
    }
    const auto& bj = static_cast<const WindowJoinOperator&>(batched->op(join));
    const auto& sj = static_cast<const WindowJoinOperator&>(scalar->op(join));
    EXPECT_EQ(bj.fired_panes(), sj.fired_panes());
    EXPECT_EQ(bj.emitted_joins(), sj.emitted_joins());
    EXPECT_EQ(bj.dropped_late_events(), sj.dropped_late_events());
    cycle_start += static_cast<TimeMicros>(b.micros) + 100;
  }
  EXPECT_GT(batched->op(join).processed_data_count(), 0);
  EXPECT_EQ(batched_barriers.records, scalar_barriers.records);
  EXPECT_FALSE(batched_barriers.records.empty());

  for (int i = begin; i < end; ++i) {
    for (int s = 0; s < batched->op(i).num_inputs(); ++s) {
      ExpectSameQueue(batched->op(i).input(s), scalar->op(i).input(s),
                      "leftover input " + std::to_string(s) + " of op " +
                          std::to_string(i));
    }
  }
  const int sink = join + 1;
  ExpectSameQueue(batched->op(sink).input(0), scalar->op(sink).input(0),
                  "join output");
  ASSERT_EQ(batched_egress.shipments.size(), scalar_egress.shipments.size());
  for (size_t k = 0; k < batched_egress.shipments.size(); ++k) {
    SCOPED_TRACE("shipment " + std::to_string(k));
    const RecordingEgress::Shipment& a = batched_egress.shipments[k];
    const RecordingEgress::Shipment& r = scalar_egress.shipments[k];
    EXPECT_EQ(a.downstream, r.downstream);
    EXPECT_EQ(a.completed, r.completed);
    ASSERT_EQ(a.events.size(), r.events.size());
    for (size_t e = 0; e < a.events.size(); ++e) {
      ExpectSameEvent(a.events[e], r.events[e]);
    }
  }
  if (with_egress) {
    EXPECT_FALSE(batched_egress.shipments.empty());
  }
}

/// Budgets for draining the join alone (cost multiplier 1.0 makes its
/// cost 1 us): a cycle ending mid-batch, one admitting exactly 512
/// elements, and fractional costs. Elements remain queued at the end.
std::vector<Budget> JoinSchedule() {
  return {{300.5, 1.0}, {512.0, 1.0}, {400.0, 1.3}, {97.3, 0.7},
          {200.0, 0.45}};
}

/// Budgets for draining sources and join: the first cycles spend most of
/// their budget in the sources (0.6 us per element), the later ones in the
/// join, again ending mid-batch, at 512 join elements, and fractionally.
std::vector<Budget> SourcesSchedule() {
  return {{1000.5, 1.0}, {2000.0, 1.0}, {512.0, 1.0}, {700.0, 1.3},
          {97.3, 0.7}, {400.0, 0.45}};
}

TEST(DrainOrderTest, TwoInputJoinMatchesPerElementLoop) {
  CheckDrainOrder(2, /*join_only=*/true, /*with_egress=*/false, JoinSchedule());
}

TEST(DrainOrderTest, ThreeInputJoinMatchesPerElementLoop) {
  CheckDrainOrder(3, /*join_only=*/true, /*with_egress=*/false,
                  JoinSchedule());
}

TEST(DrainOrderTest, SourcesAndJoinMatchPerElementLoop) {
  // Unary sources batch-drain into the join's inputs within one sweep.
  for (const int n : {2, 3}) {
    CheckDrainOrder(n, /*join_only=*/false, /*with_egress=*/false,
                    SourcesSchedule());
  }
}

TEST(DrainOrderTest, EgressShipsPerElementAtItsCompletionTime) {
  for (const int n : {2, 3}) {
    CheckDrainOrder(n, /*join_only=*/true, /*with_egress=*/true,
                    JoinSchedule());
    CheckDrainOrder(n, /*join_only=*/false, /*with_egress=*/true,
                    SourcesSchedule());
  }
}

}  // namespace
}  // namespace klink
