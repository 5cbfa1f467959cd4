// Reproduces Fig. 7a/7b: mean output latency vs. number of queries for the
// LRB and NYT workloads under uniform network delay. Expected shape: as
// with YSB, all policies cluster under light load and diverge past the
// knee, with Klink delivering at least ~45% lower latency at high query
// counts for both workloads.

#include <vector>

#include "bench/bench_common.h"
#include "src/harness/reporter.h"

int main(int argc, char** argv) {
  using namespace klink;
  using namespace klink::bench;

  ExecutorKind executor = ExecutorKind::kSequential;
  if (!ParseArgs(argc, argv, &executor)) return 2;

  const std::vector<int> query_counts = SmokeMode()
                                            ? std::vector<int>{20, 60}
                                            : std::vector<int>{1, 20, 40, 60, 80};

  for (WorkloadKind workload : {WorkloadKind::kLrb, WorkloadKind::kNyt}) {
    const char* fig = workload == WorkloadKind::kLrb ? "7a (LRB)" : "7b (NYT)";
    TableReporter table(std::string("Fig. ") + fig +
                        ": mean output latency (s) vs #queries");
    std::vector<std::string> header = {"policy"};
    for (int n : query_counts) header.push_back("q=" + std::to_string(n));
    table.SetHeader(header);

    for (PolicyKind policy : AllPolicies()) {
      std::vector<std::string> row = {PolicyKindName(policy)};
      for (int n : query_counts) {
        ExperimentConfig config = BaseConfig(executor);
        ApplySmoke(&config);
        config.policy = policy;
        config.workload = workload;
        config.num_queries = n;
        // LRB's rate parameter is per sub-stream (3 sub-streams/query).
        if (workload == WorkloadKind::kLrb) {
          config.events_per_second = 1000.0 / 3.0;
        }
        const ExperimentResult result = RunExperiment(config);
        row.push_back(WindowCell(result.latency, result.mean_latency_s, 3));
      }
      table.AddRow(row);
    }
    table.Print();
  }
  return 0;
}
