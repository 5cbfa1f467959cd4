#ifndef KLINK_BENCH_BENCH_COMMON_H_
#define KLINK_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/harness/experiment.h"

namespace klink::bench {

/// All policies compared in the single-node experiments, in the paper's
/// legend order.
inline std::vector<PolicyKind> AllPolicies() {
  return {PolicyKind::kDefault,     PolicyKind::kFcfs,
          PolicyKind::kRoundRobin,  PolicyKind::kHighestRate,
          PolicyKind::kStreamBox,   PolicyKind::kKlinkNoMm,
          PolicyKind::kKlink};
}

/// Parses a bench's command line. A bench whose runs honour the executor
/// passes `executor`, holding its default, and accepts
/// --executor=sequential|threads; both kinds print identical output,
/// so the flag changes wall-clock time only. A bench that passes nullptr
/// accepts no flag. Any other flag, a positional argument or a bad value
/// prints a message naming it and returns false; the bench then exits 2.
inline bool ParseArgs(int argc, char** argv, ExecutorKind* executor) {
  std::vector<std::string> known;
  std::string name = "sequential";
  if (executor != nullptr) {
    known.push_back("executor");
    name = ExecutorKindName(*executor);
  }
  FlagParser flags;
  for (const Status& st :
       {flags.Parse(argc - 1, argv + 1), flags.CheckKnown(known),
        flags.GetChoice("executor", {"sequential", "threads"}, name, &name)}) {
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.message().c_str());
      return false;
    }
  }
  return executor == nullptr || ParseExecutorKind(name, executor);
}

/// Baseline experiment configuration shared by the figure benches. The
/// paper's 20-minute, 10K-events/s/query runs are scaled down 10x so every
/// bench finishes in seconds of wall time; the contention regime (offered
/// load vs. core capacity, memory headroom vs. backlog) is preserved. See
/// DESIGN.md "Substitutions".
inline ExperimentConfig BaseConfig(ExecutorKind executor) {
  ExperimentConfig config;
  config.events_per_second = 1000.0;
  config.duration = SecondsToMicros(120);
  config.warmup = SecondsToMicros(30);
  config.deploy_spread = SecondsToMicros(20);
  config.engine.num_cores = 8;
  config.engine.cycle_length = MillisToMicros(120);
  config.engine.memory_capacity_bytes = 16ll << 20;
  config.engine.executor = executor;
  config.seed = 1;
  return config;
}

/// Smoke mode: KLINK_BENCH_SMOKE=1 shrinks runs so the whole bench suite
/// can be exercised quickly (CI); results are noisier but the harness path
/// is identical.
inline bool SmokeMode() {
  const char* env = std::getenv("KLINK_BENCH_SMOKE");
  return env != nullptr && env[0] == '1';
}

inline void ApplySmoke(ExperimentConfig* config) {
  if (!SmokeMode()) return;
  config->duration = SecondsToMicros(40);
  config->warmup = SecondsToMicros(10);
  config->deploy_spread = SecondsToMicros(5);
}

}  // namespace klink::bench

#endif  // KLINK_BENCH_BENCH_COMMON_H_
