// Reproduces Fig. 6d: aggregate throughput (operator-events processed per
// second) vs. number of YSB queries. Expected shape: throughput scales
// with load until the baselines plateau; Klink sustains a higher plateau
// (the paper reports ~25-30% over the non-Klink policies) because its
// memory management avoids the managed-runtime slowdown near the memory
// ceiling, and Klink (w/o MM) lands in between.

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

  TableReporter table(
      "Fig. 6d: YSB throughput (operator-events/s, x1000) vs #queries");
  std::vector<std::string> header = {"policy"};
  for (int n : query_counts) header.push_back("q=" + std::to_string(n));
  table.SetHeader(header);

  for (PolicyKind policy : AllPolicies()) {
    std::vector<std::string> row = {PolicyKindName(policy)};
    for (int n : query_counts) {
      ExperimentConfig config = BaseConfig(executor);
      ApplySmoke(&config);
      config.policy = policy;
      config.workload = WorkloadKind::kYsb;
      config.num_queries = n;
      const ExperimentResult result = RunExperiment(config);
      row.push_back(TableReporter::Num(result.throughput_eps / 1000.0, 1));
    }
    table.AddRow(row);
  }
  table.Print();
  return 0;
}
