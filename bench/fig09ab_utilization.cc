// Reproduces Fig. 9a/9b: memory utilization (average and 90th percentile)
// and CPU utilization (average and p90) vs. offered throughput, Default vs
// Klink. Expected shape: Klink consumes substantially less memory across
// the throughput range and hits the memory ceiling much later than
// Default, while sustaining equal or higher CPU utilization that scales
// with throughput.

#include <vector>

#include "bench/bench_common.h"
#include "src/harness/reporter.h"

int main(int argc, char** argv) {
  using namespace klink;
  using namespace klink::bench;

  ExecutorKind executor = ExecutorKind::kSequential;
  if (!ParseArgs(argc, argv, &executor)) return 2;

  const std::vector<double> totals = SmokeMode()
                                         ? std::vector<double>{40000, 80000}
                                         : std::vector<double>{20000, 40000,
                                                               60000, 80000,
                                                               96000};
  const int kQueries = 40;

  TableReporter mem_table(
      "Fig. 9a: memory utilization (MB) vs offered throughput (events/s)");
  TableReporter cpu_table(
      "Fig. 9b: CPU utilization (%) vs offered throughput (events/s)");
  std::vector<std::string> header = {"series"};
  for (double t : totals) header.push_back(TableReporter::Num(t / 1000, 0) + "k");
  mem_table.SetHeader(header);
  cpu_table.SetHeader(header);

  for (PolicyKind policy : {PolicyKind::kDefault, PolicyKind::kKlink}) {
    std::vector<std::string> mem_avg = {std::string(PolicyKindName(policy)) +
                                        " AVG"};
    std::vector<std::string> mem_p90 = {std::string(PolicyKindName(policy)) +
                                        " p90"};
    std::vector<std::string> cpu_avg = mem_avg;
    std::vector<std::string> cpu_p90 = mem_p90;
    for (double total : totals) {
      ExperimentConfig config = BaseConfig(executor);
      ApplySmoke(&config);
      config.policy = policy;
      config.workload = WorkloadKind::kYsb;
      config.num_queries = kQueries;
      config.events_per_second = total / kQueries;
      const ExperimentResult result = RunExperiment(config);
      mem_avg.push_back(
          TableReporter::Num(result.mean_memory_bytes / 1048576.0, 1));
      mem_p90.push_back(
          TableReporter::Num(result.p90_memory_bytes / 1048576.0, 1));
      cpu_avg.push_back(
          TableReporter::Num(result.mean_cpu_utilization * 100.0, 1));
      cpu_p90.push_back(
          TableReporter::Num(result.p90_cpu_utilization * 100.0, 1));
    }
    mem_table.AddRow(mem_avg);
    mem_table.AddRow(mem_p90);
    cpu_table.AddRow(cpu_avg);
    cpu_table.AddRow(cpu_p90);
  }
  mem_table.Print();
  cpu_table.Print();
  return 0;
}
