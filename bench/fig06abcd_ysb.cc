// Reproduces Fig. 6a-6d from one YSB deployment sweep: every policy at 1-80
// queries under uniform network delay, each run once.
//  - 6a, mean output latency: all policies are close under light load;
//    past the saturation knee Klink's latency stays well below the
//    baselines (the paper reports ~50% reductions over Default/SBox/FCFS/RR
//    and ~45% over HR at 80 queries).
//  - 6b, latency CDF at 60 queries: consistent latencies between the 40th
//    and 90th percentiles with a clear gap between Klink and the baselines,
//    and heavy baseline tails between the 90th and 99th percentiles (the
//    paper reports Default degrading ~3x from p90 to p99 and Klink cutting
//    p99 by ~55%).
//  - 6c, slowdown: the SWM propagation delay divided by the ideal
//    end-to-end processing cost of one event (Sec. 6.1.2), the
//    scheduling-induced overhead within the latency. It mirrors 6a.
//  - 6d, throughput (operator-events processed per second): it scales with
//    load until the baselines plateau; Klink sustains a higher plateau (the
//    paper reports ~25-30% over the non-Klink policies) because its memory
//    management avoids the managed-runtime slowdown near the memory
//    ceiling, and Klink (w/o MM) lands in between.

#include <vector>

#include "bench/bench_common.h"
#include "src/harness/reporter.h"

int main(int argc, char** argv) {
  using namespace klink;
  using namespace klink::bench;

  ExecutorKind executor = ExecutorKind::kSequential;
  if (!ParseArgs(argc, argv, &executor)) return 2;

  ExperimentConfig base = BaseConfig(executor);
  ApplySmoke(&base);
  base.workload = WorkloadKind::kYsb;
  base.delay = DelayKind::kUniform;
  const Sweep sweep = RunSweep(
      base, SmokeMode() ? std::vector<int>{1, 20, 40}
                        : std::vector<int>{1, 20, 40, 60, 80});

  PrintCountPanel("Fig. 6a: YSB mean output latency (s) vs #queries", sweep,
                  [](const ExperimentResult& r) {
                    return WindowCell(r.latency, r.mean_latency_s, 3);
                  });
  PrintCdfPanel("Fig. 6b: YSB", sweep);
  PrintCountPanel("Fig. 6c: YSB slowdown vs #queries", sweep,
                  [](const ExperimentResult& r) {
                    return WindowCell(r.latency, r.slowdown, 0);
                  });
  PrintCountPanel(
      "Fig. 6d: YSB throughput (operator-events/s, x1000) vs #queries", sweep,
      [](const ExperimentResult& r) {
        return TableReporter::Num(r.throughput_eps / 1000.0, 1);
      });
  return 0;
}
