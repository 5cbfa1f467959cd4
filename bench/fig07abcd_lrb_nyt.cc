// Reproduces Fig. 7a-7d from one deployment sweep per workload: every
// policy at 1-80 LRB and NYT queries under uniform network delay, each run
// once.
//  - 7a/7b, mean output latency: as with YSB, all policies cluster under
//    light load and diverge past the knee, with Klink delivering at least
//    ~45% lower latency at high query counts for both workloads.
//  - 7c/7d, latency CDF at 60 queries: heavy baseline tails past the 90th
//    percentile (the paper reports Default's LRB tail growing ~2x from p90
//    to p99) with Klink achieving ~50-60% lower tail latency.

#include <vector>

#include "bench/bench_common.h"
#include "src/harness/reporter.h"

int main(int argc, char** argv) {
  using namespace klink;
  using namespace klink::bench;

  ExecutorKind executor = ExecutorKind::kSequential;
  if (!ParseArgs(argc, argv, &executor)) return 2;

  const std::vector<int> query_counts =
      SmokeMode() ? std::vector<int>{20, 60}
                  : std::vector<int>{1, 20, 40, 60, 80};
  const auto sweep = [&](WorkloadKind workload) {
    ExperimentConfig base = BaseConfig(executor);
    ApplySmoke(&base);
    base.workload = workload;
    // LRB's rate parameter is per sub-stream (3 sub-streams/query).
    if (workload == WorkloadKind::kLrb) base.events_per_second = 1000.0 / 3.0;
    return RunSweep(base, query_counts);
  };
  const Sweep lrb = sweep(WorkloadKind::kLrb);
  const Sweep nyt = sweep(WorkloadKind::kNyt);

  const auto mean_latency = [](const ExperimentResult& r) {
    return WindowCell(r.latency, r.mean_latency_s, 3);
  };
  PrintCountPanel("Fig. 7a (LRB): mean output latency (s) vs #queries", lrb,
                  mean_latency);
  PrintCountPanel("Fig. 7b (NYT): mean output latency (s) vs #queries", nyt,
                  mean_latency);
  PrintCdfPanel("Fig. 7c (LRB):", lrb);
  PrintCdfPanel("Fig. 7d (NYT):", nyt);
  return 0;
}
