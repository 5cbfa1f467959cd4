// Reproduces Fig. 6b: YSB output latency CDF at 60 concurrent queries for
// all seven policies. Expected shape: consistent latencies between the
// 40th and 90th percentiles with a clear gap between Klink and the
// baselines, and heavy baseline tails between the 90th and 99th
// percentiles (the paper reports Default degrading ~3x from p90 to p99
// and Klink cutting p99 by ~55%).

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

  TableReporter table("Fig. 6b: YSB latency CDF (s) at 60 queries");
  std::vector<std::string> header = {"policy"};
  for (double p : percentiles) {
    header.push_back(std::string("p").append(TableReporter::Num(p, 0)));
  }
  table.SetHeader(header);

  for (PolicyKind policy : AllPolicies()) {
    ExperimentConfig config = BaseConfig(executor);
    ApplySmoke(&config);
    config.policy = policy;
    config.workload = WorkloadKind::kYsb;
    config.num_queries = kQueries;
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
  return 0;
}
