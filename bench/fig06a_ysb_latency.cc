// Reproduces Fig. 6a: YSB mean output latency vs. number of deployed
// queries (1-80) for all seven scheduling policies, uniform network delay.
// Expected shape: all policies are close under light load; past the
// saturation knee Klink's latency stays well below the baselines (the
// paper reports ~50% reductions over Default/SBox/FCFS/RR and ~45% over
// HR at 80 queries).

#include <vector>

#include "bench/bench_common.h"
#include "src/harness/reporter.h"

int main(int argc, char** argv) {
  using namespace klink;
  using namespace klink::bench;

  ExecutorKind executor = ExecutorKind::kSequential;
  if (!ParseArgs(argc, argv, &executor)) return 2;

  const std::vector<int> query_counts = SmokeMode()
                                            ? std::vector<int>{1, 20, 40}
                                            : std::vector<int>{1, 20, 40, 60, 80};

  TableReporter table("Fig. 6a: YSB mean output latency (s) vs #queries");
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
      config.delay = DelayKind::kUniform;
      config.num_queries = n;
      const ExperimentResult result = RunExperiment(config);
      row.push_back(WindowCell(result.latency, result.mean_latency_s, 3));
    }
    table.AddRow(row);
  }
  table.Print();
  return 0;
}
