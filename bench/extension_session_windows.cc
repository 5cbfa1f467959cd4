// Extension experiment (beyond the paper): Klink on *session* windows,
// whose deadlines are data-dependent — every new event pushes the
// session's close time out by the gap, so SWM ingestion is far less
// predictable than for the periodic tumbling/sliding windows of the
// paper's evaluation. Compares the policies on a session-analytics
// workload and reports Klink's estimation accuracy in this harder
// setting. Expected shape: Klink stays in the leading group (imminent
// deadlines remain a useful ordering signal even when estimated
// coarsely), but the SWM interval estimator collapses to ~0% coverage:
// it freezes an interval around the *current* earliest session close,
// which later activity systematically pushes out — the paper's
// stationary-deadline assumption does not hold for sessions. Making the
// estimator deadline-drift-aware is natural future work.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/harness/reporter.h"
#include "src/klink/klink_policy.h"
#include "src/query/pipeline_builder.h"
#include "src/runtime/engine.h"
#include "src/sched/default_policy.h"
#include "src/sched/fcfs_policy.h"
#include "src/sched/sbox_policy.h"
#include "src/workloads/workload.h"

namespace {

using namespace klink;
using namespace klink::bench;

struct Outcome {
  Histogram swm_latency;
  double accuracy = -1.0;
};

Outcome Run(PolicyKind policy, int num_queries) {
  EngineConfig config;
  config.num_cores = 8;
  config.memory_capacity_bytes = 16ll << 20;
  KlinkPolicyConfig kc;
  kc.cycle_length = config.cycle_length;
  std::unique_ptr<SchedulingPolicy> pol = MakePolicy(policy, kc, 77);
  auto* klink_policy = dynamic_cast<KlinkPolicy*>(pol.get());
  Engine engine(config, std::move(pol));

  Rng rng(9);
  for (int q = 0; q < num_queries; ++q) {
    PipelineBuilder b("sessions");
    b.Source("user-events", 30.0)
        .Map("sessionize-key", 20.0)
        // Per-key gap of 400 ms against ~200 ms mean inter-arrival per
        // key: sessions form and close continuously.
        .SessionWindow("user-sessions", 60.0, MillisToMicros(400),
                       AggregationKind::kCount)
        .Sink("out", 5.0);
    SourceSpec spec;
    spec.events_per_second = 1000.0;
    spec.key_cardinality = 200;
    spec.watermark_lag = MillisToMicros(120);
    spec.burstiness = 0.5;
    const TimeMicros deploy = rng.NextInt(0, SecondsToMicros(20));
    engine.AddQuery(b.Build(q),
                    std::make_unique<SyntheticFeed>(
                        std::vector<SourceSpec>{spec},
                        MakePaperUniformDelay(), rng.NextUint64(), deploy),
                    deploy);
  }
  engine.RunUntil(SecondsToMicros(30));
  for (int q = 0; q < engine.num_queries(); ++q) {
    engine.query(q).sink().ResetStats();
  }
  engine.RunUntil(SmokeMode() ? SecondsToMicros(60) : SecondsToMicros(120));
  Outcome o{engine.AggregateSwmLatency()};
  if (klink_policy != nullptr) o.accuracy = klink_policy->EstimatorAccuracy();
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  if (!ParseArgs(argc, argv, nullptr)) return 2;
  const int kQueries = SmokeMode() ? 30 : 60;
  TableReporter table(
      "Extension: session windows (data-dependent deadlines), 60 queries");
  table.SetHeader({"policy", "mean_latency_s", "p99_latency_s",
                   "swm_est_accuracy_%"});
  for (PolicyKind policy :
       {PolicyKind::kDefault, PolicyKind::kFcfs, PolicyKind::kStreamBox,
        PolicyKind::kKlink}) {
    const Outcome o = Run(policy, kQueries);
    const Histogram& lat = o.swm_latency;
    table.AddRow({PolicyKindName(policy),
                  WindowCell(lat, lat.mean() / 1e6, 3),
                  WindowCell(lat, static_cast<double>(lat.Percentile(99)) / 1e6,
                             3),
                  o.accuracy < 0 ? "-" : TableReporter::Num(o.accuracy * 100, 1)});
  }
  table.Print();
  return 0;
}
