// Reproduces Fig. 6c: slowdown vs. number of YSB queries. Slowdown
// divides the SWM propagation delay by the ideal end-to-end processing
// cost of one event (Sec. 6.1.2), extracting the scheduling-induced
// overhead from the latency. Expected shape mirrors Fig. 6a: Klink's
// slowdown stays far below the baselines past the saturation knee.

#include <vector>

#include "bench/bench_common.h"
#include "src/harness/reporter.h"

int main(int argc, char** argv) {
  using namespace klink;
  using namespace klink::bench;

  ExecutorKind executor = ExecutorKind::kSequential;
  if (!ParseArgs(argc, argv, &executor)) return 2;

  const std::vector<int> query_counts = SmokeMode()
                                            ? std::vector<int>{1, 40}
                                            : std::vector<int>{1, 20, 40, 60, 80};

  TableReporter table("Fig. 6c: YSB slowdown vs #queries");
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
      row.push_back(WindowCell(result.latency, result.slowdown, 0));
    }
    table.AddRow(row);
  }
  table.Print();
  return 0;
}
