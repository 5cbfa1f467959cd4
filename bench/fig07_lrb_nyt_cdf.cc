// Reproduces Fig. 7c/7d: output latency CDFs for LRB and NYT at 60
// concurrent queries. Expected shape: heavy baseline tails past the 90th
// percentile (the paper reports Default's LRB tail growing ~2x from p90
// to p99) with Klink achieving ~50-60% lower tail latency.

#include <vector>

#include "bench/bench_common.h"
#include "src/harness/reporter.h"

int main(int argc, char** argv) {
  using namespace klink;
  using namespace klink::bench;

  ExecutorKind executor = ExecutorKind::kSequential;
  if (!ParseArgs(argc, argv, &executor)) return 2;

  const std::vector<double> percentiles = {40, 50, 60, 70, 80, 90, 95, 99};
  const int kQueries = SmokeMode() ? 30 : 60;

  for (WorkloadKind workload : {WorkloadKind::kLrb, WorkloadKind::kNyt}) {
    const char* fig = workload == WorkloadKind::kLrb ? "7c (LRB)" : "7d (NYT)";
    TableReporter table(std::string("Fig. ") + fig +
                        ": latency CDF (s) at 60 queries");
    std::vector<std::string> header = {"policy"};
    for (double p : percentiles) {
      header.push_back(std::string("p").append(TableReporter::Num(p, 0)));
    }
    table.SetHeader(header);

    for (PolicyKind policy : AllPolicies()) {
      ExperimentConfig config = BaseConfig(executor);
      ApplySmoke(&config);
      config.policy = policy;
      config.workload = workload;
      config.num_queries = kQueries;
      if (workload == WorkloadKind::kLrb) {
        config.events_per_second = 1000.0 / 3.0;
      }
      const ExperimentResult result = RunExperiment(config);
      std::vector<std::string> row = {PolicyKindName(policy)};
      for (double p : percentiles) {
        row.push_back(WindowCell(
            result.latency,
            static_cast<double>(result.latency.Percentile(p)) / 1e6, 3));
      }
      table.AddRow(row);
    }
    table.Print();
  }
  return 0;
}
