// Allowed-lateness bench (DESIGN.md "Late data"): what retaining fired
// panes costs, and the refire debt Klink prices into slack.
//
// Part 1 — horizon sweep. YSB queries under the heavy-tailed Pareto
// straggler delay, allowed lateness L in {0, 100, 300, 1000} ms.
// Reported per L: late events accepted into retained panes vs dropped
// beyond every horizon (accepted grows with L, dropped shrinks),
// retraction/update correction elements emitted, peak simulated memory
// (retained panes + the sink's converging-log tail grow with L), the
// Klink SWM-estimator accuracy/MAE, and output latency (unchanged by L:
// panes still fire speculatively at their deadline).
//
// Part 2 — refire debt. Retained panes create future work the slack
// evaluation cannot see from the queues alone: corrections that windowed
// operators will emit at the next watermark. The snapshot prices that
// debt (QueryInfo::refire_debt_micros) and Klink adds it to drain cost
// before computing slack. The bench reports the time-averaged debt per
// cycle, the flushed debt alongside it (the predicted work materializes
// as emitted corrections), and the run's mean slowdown and p99 latency.
//
// Acceptance (recorded by tools/bench_lateness.sh into
// BENCH_lateness.json):
//   * accepted(L=1000ms) > accepted(L=100ms) > 0 and
//     dropped(L=1000ms) < dropped(L=100ms);
//   * correction elements emitted > 0 for every L >= 300ms;
//   * peak memory at L=1000ms exceeds the L=0 baseline;
//   * the mean refire debt is > 0 and the debt flushes (corrections
//     materialize).
//
//   micro_lateness [--executor=threads|sequential]

#include <cstdio>

#include "bench/bench_common.h"
#include "src/common/types.h"
#include "src/harness/experiment.h"
#include "src/runtime/snapshot.h"

namespace klink {
namespace {

ExperimentConfig BaseConfig(ExecutorKind executor, DurationMicros duration) {
  ExperimentConfig config;
  config.policy = PolicyKind::kKlink;
  config.workload = WorkloadKind::kYsb;
  config.delay = DelayKind::kPareto;
  config.num_queries = 4;
  config.events_per_second = 3000.0;
  config.duration = duration;
  config.deploy_spread = SecondsToMicros(1);
  config.warmup = SecondsToMicros(2);
  config.engine.num_cores = 2;
  config.engine.executor = executor;
  config.seed = 7;
  return config;
}

void RunSweepPoint(DurationMicros lateness, ExecutorKind executor,
                   DurationMicros duration) {
  ExperimentConfig config = BaseConfig(executor, duration);
  config.allowed_lateness = lateness;
  const ExperimentResult r = RunExperiment(config);
  std::printf(
      "SWEEP lateness_ms=%lld accepted=%lld dropped=%lld corrections=%lld "
      "unmatched=%lld peak_memory_bytes=%lld estimator_accuracy=%.3f "
      "estimator_predictions=%lld estimator_mae_s=%.4f p50_latency_s=%.3f "
      "p99_latency_s=%.3f\n",
      static_cast<long long>(lateness / 1000),
      static_cast<long long>(r.late.late_accepted),
      static_cast<long long>(r.late.late_dropped_beyond_horizon),
      static_cast<long long>(r.late.retractions_emitted +
                             r.late.updates_emitted),
      static_cast<long long>(r.late.unmatched_retractions),
      static_cast<long long>(r.peak_memory_bytes), r.estimator_accuracy,
      static_cast<long long>(r.estimator_predictions), r.estimator_mae_s,
      r.p50_latency_s, r.p99_latency_s);
  std::fflush(stdout);
}

void RunDebt(ExecutorKind executor, DurationMicros duration) {
  ExperimentConfig config = BaseConfig(executor, duration);
  config.allowed_lateness = MillisToMicros(300);
  double debt_sum = 0.0;
  double flushed_debt = 0.0;  // per-cycle debt drops ~= work emitted
  double prev_debt = 0.0;
  int64_t cycles = 0;
  const ExperimentResult r =
      RunExperiment(config, [&](const RuntimeSnapshot& snap) {
        double debt = 0.0;
        for (const QueryInfo& q : snap.queries) {
          debt += q.refire_debt_micros;
        }
        debt_sum += debt;
        if (debt < prev_debt) flushed_debt += prev_debt - debt;
        prev_debt = debt;
        ++cycles;
      });
  std::printf(
      "DEBT mean_debt_micros_per_cycle=%.2f "
      "flushed_debt_micros=%.0f corrections=%lld accepted=%lld "
      "slowdown=%.1f p99_latency_s=%.3f\n",
      cycles == 0 ? 0.0 : debt_sum / static_cast<double>(cycles),
      flushed_debt,
      static_cast<long long>(r.late.retractions_emitted +
                             r.late.updates_emitted),
      static_cast<long long>(r.late.late_accepted), r.slowdown,
      r.p99_latency_s);
  std::fflush(stdout);
}

}  // namespace
}  // namespace klink

int main(int argc, char** argv) {
  using namespace klink;

  ExperimentConfig flag_holder;
  flag_holder.engine.executor = ExecutorKind::kSequential;
  if (!bench::ApplyExecutorFlag(argc, argv, &flag_holder)) return 2;
  const ExecutorKind executor = flag_holder.engine.executor;

  const bool smoke = bench::SmokeMode();
  const DurationMicros duration = SecondsToMicros(smoke ? 8 : 30);

  std::printf("# allowed-lateness: horizon sweep, executor=%s, "
              "delay=pareto\n",
              ExecutorKindName(executor));
  for (const DurationMicros lateness :
       {DurationMicros{0}, MillisToMicros(100), MillisToMicros(300),
        MillisToMicros(1000)}) {
    RunSweepPoint(lateness, executor, duration);
  }
  RunDebt(executor, duration);
  return 0;
}
