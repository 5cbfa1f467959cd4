#ifndef KLINK_BENCH_BENCH_COMMON_H_
#define KLINK_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/flags.h"
#include "src/harness/experiment.h"
#include "src/harness/reporter.h"

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

/// One deployment sweep (Sec. 6.2): `base` run once under every policy of
/// AllPolicies() at every query count. A figure prints all its panels from
/// one sweep instead of rerunning the same experiments per panel.
struct Sweep {
  std::vector<int> query_counts;
  /// runs[p][i]: policy AllPolicies()[p] at query_counts[i] queries.
  std::vector<std::vector<ExperimentResult>> runs;
};

inline Sweep RunSweep(const ExperimentConfig& base,
                      std::vector<int> query_counts) {
  Sweep sweep{std::move(query_counts), {}};
  for (PolicyKind policy : AllPolicies()) {
    std::vector<ExperimentResult>& row = sweep.runs.emplace_back();
    for (int n : sweep.query_counts) {
      ExperimentConfig config = base;
      config.policy = policy;
      config.num_queries = n;
      row.push_back(RunExperiment(config));
    }
  }
  return sweep;
}

/// Prints a policy x query-count panel: one `cell` per run of `sweep`.
inline void PrintCountPanel(
    const std::string& title, const Sweep& sweep,
    const std::function<std::string(const ExperimentResult&)>& cell) {
  TableReporter table(title);
  std::vector<std::string> header = {"policy"};
  for (int n : sweep.query_counts) header.push_back("q=" + std::to_string(n));
  table.SetHeader(header);
  for (const std::vector<ExperimentResult>& runs : sweep.runs) {
    std::vector<std::string> row = {runs.front().policy_name};
    for (const ExperimentResult& result : runs) row.push_back(cell(result));
    table.AddRow(row);
  }
  table.Print();
}

/// Prints a policy x percentile panel: the latency CDF of `sweep`'s runs at
/// its largest query count up to the paper's 60 (a smoke grid may stop
/// short of 60). The title, "<prefix> latency CDF (s) at N queries", names
/// the count used.
inline void PrintCdfPanel(const std::string& prefix, const Sweep& sweep) {
  size_t column = 0;
  while (column + 1 < sweep.query_counts.size() &&
         sweep.query_counts[column + 1] <= 60) {
    ++column;
  }
  const std::vector<double> percentiles = {40, 50, 60, 70, 80, 90, 95, 99};
  TableReporter table(prefix + " latency CDF (s) at " +
                      std::to_string(sweep.query_counts[column]) +
                      " queries");
  std::vector<std::string> header = {"policy"};
  for (double p : percentiles) {
    header.push_back(std::string("p").append(TableReporter::Num(p, 0)));
  }
  table.SetHeader(header);
  for (const std::vector<ExperimentResult>& runs : sweep.runs) {
    const Histogram& latency = runs[column].latency;
    std::vector<std::string> row = {runs[column].policy_name};
    for (double pct : percentiles) {
      row.push_back(WindowCell(
          latency, static_cast<double>(latency.Percentile(pct)) / 1e6, 3));
    }
    table.AddRow(row);
  }
  table.Print();
}

}  // namespace klink::bench

#endif  // KLINK_BENCH_BENCH_COMMON_H_
