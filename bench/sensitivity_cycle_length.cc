// Sensitivity of the scheduling cycle length r (Sec. 3: "a small value of
// r is expected to incur higher overhead while a large value implies
// missing the deadlines for idle queries"). Sweeps r for Klink and
// Default at 60 YSB queries; expected shape: a sweet spot around the
// paper's 120 ms, with latency degrading for very coarse cycles and
// scheduler overhead rising for very fine ones.

#include <vector>

#include "bench/bench_common.h"
#include "src/harness/reporter.h"

int main(int argc, char** argv) {
  using namespace klink;
  using namespace klink::bench;

  ExecutorKind executor = ExecutorKind::kSequential;
  if (!ParseArgs(argc, argv, &executor)) return 2;

  const std::vector<int64_t> cycles_ms =
      SmokeMode() ? std::vector<int64_t>{120, 480}
                  : std::vector<int64_t>{30, 60, 120, 240, 480};
  const int kQueries = SmokeMode() ? 30 : 60;

  TableReporter table(
      "Sensitivity: scheduling cycle r, YSB at 60 queries");
  table.SetHeader({"r_ms", "Klink_latency_s", "Klink_overhead_%",
                   "Default_latency_s"});

  for (int64_t r : cycles_ms) {
    ExperimentConfig config = BaseConfig(executor);
    ApplySmoke(&config);
    config.workload = WorkloadKind::kYsb;
    config.num_queries = kQueries;
    config.engine.cycle_length = MillisToMicros(r);

    config.policy = PolicyKind::kKlink;
    const ExperimentResult klink = RunExperiment(config);
    config.policy = PolicyKind::kDefault;
    const ExperimentResult def = RunExperiment(config);

    table.AddRow({std::to_string(r),
                  WindowCell(klink.latency, klink.mean_latency_s, 3),
                  TableReporter::Num(klink.scheduler_overhead * 100.0, 3),
                  WindowCell(def.latency, def.mean_latency_s, 3)});
  }
  table.Print();
  return 0;
}
