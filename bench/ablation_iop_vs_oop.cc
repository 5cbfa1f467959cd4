// Quantifies the paper's Sec. 2.1 claim that in-order processing (IOP)
// "typically imposes large performance overheads" compared to
// out-of-order processing (OOP) with watermarks: the same windowed YSB
// query runs once as-is (OOP) and once with an IOP reordering buffer
// ahead of the window. The reorder stage holds every event until a
// watermark covers it, so output latency inflates by roughly the
// watermark lag + period even though the window results are identical.

#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/harness/reporter.h"
#include "src/klink/klink_policy.h"
#include "src/query/pipeline_builder.h"
#include "src/runtime/engine.h"
#include "src/workloads/workload.h"

namespace {

using namespace klink;
using namespace klink::bench;

struct Outcome {
  Histogram swm_latency;
  double propagation_ms;  // latency-marker (per-event) propagation delay
  int64_t results;
};

Outcome Run(bool iop) {
  EngineConfig config;
  config.num_cores = 4;
  Engine engine(config, std::make_unique<KlinkPolicy>());
  Rng rng(31);
  const int kQueries = 16;
  for (int q = 0; q < kQueries; ++q) {
    PipelineBuilder b(iop ? "ysb-iop" : "ysb-oop");
    BuilderStream s =
        b.Source("events", 30.0)
            .Filter("views", 35.0, FilterOperator::HashPassRate(1.0 / 3), 1.0 / 3);
    if (iop) s = s.Reorder("iop-buffer", 10.0);
    s.TumblingAggregate("count", 60.0, SecondsToMicros(3),
                        AggregationKind::kCount,
                        rng.NextInt(0, SecondsToMicros(3) - 1))
        .Sink("out", 5.0);
    SourceSpec spec;
    spec.events_per_second = 1000.0;
    spec.watermark_lag = MillisToMicros(120);
    spec.burstiness = 0.5;
    engine.AddQuery(b.Build(q),
                    std::make_unique<SyntheticFeed>(
                        std::vector<SourceSpec>{spec},
                        MakePaperUniformDelay(), rng.NextUint64(), 0));
  }
  engine.RunFor(SmokeMode() ? SecondsToMicros(40) : SecondsToMicros(120));
  int64_t results = 0;
  for (int q = 0; q < engine.num_queries(); ++q) {
    results += engine.query(q).sink().results_received();
  }
  return Outcome{engine.AggregateSwmLatency(),
                 engine.AggregateMarkerLatency().mean() / 1e3, results};
}

}  // namespace

int main(int argc, char** argv) {
  if (!ParseArgs(argc, argv, nullptr)) return 2;
  const Outcome oop = Run(/*iop=*/false);
  const Outcome iop = Run(/*iop=*/true);
  TableReporter table("Ablation: OOP (watermarks) vs IOP (reorder buffer)");
  table.SetHeader({"mode", "swm_latency_ms", "p99_ms", "event_propagation_ms",
                   "window_results"});
  const auto add_row = [&table](const char* mode, const Outcome& o) {
    const Histogram& lat = o.swm_latency;
    table.AddRow(
        {mode, WindowCell(lat, lat.mean() / 1e3, 1),
         WindowCell(lat, static_cast<double>(lat.Percentile(99)) / 1e3, 1),
         TableReporter::Num(o.propagation_ms, 1), std::to_string(o.results)});
  };
  add_row("OOP", oop);
  add_row("IOP", iop);
  table.Print();
  std::printf(
      "IOP event-propagation overhead over OOP: %.0f%% (same window "
      "results)\n",
      100.0 * (iop.propagation_ms / oop.propagation_ms - 1.0));
  return 0;
}
