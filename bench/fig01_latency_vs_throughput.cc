// Reproduces Fig. 1: mean output latency vs. offered throughput for YSB
// and LRB under the Default scheduler and under Klink. Expected shape:
// latency is small and flat under light load, rises steeply as the load
// approaches the SPE's capacity, and Default incurs ~50% extra latency
// over Klink at matched throughput.

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/harness/reporter.h"

int main(int argc, char** argv) {
  using namespace klink;
  using namespace klink::bench;

  ExecutorKind executor = ExecutorKind::kSequential;
  if (!ParseArgs(argc, argv, &executor)) return 2;

  // Total offered source events/second across all queries (the paper's
  // x-axis, scaled down 10x with the rest of the environment).
  const std::vector<double> totals = SmokeMode()
                                         ? std::vector<double>{20000, 80000}
                                         : std::vector<double>{10000, 20000,
                                                               40000, 60000,
                                                               80000};
  const int kQueries = 40;

  TableReporter table(
      "Fig. 1: mean output latency (s) vs offered throughput (events/s)");
  std::vector<std::string> header = {"series"};
  for (double t : totals) header.push_back(TableReporter::Num(t / 1000, 0) + "k");
  table.SetHeader(header);

  struct Series {
    WorkloadKind workload;
    PolicyKind policy;
    const char* label;
  };
  const Series series[] = {
      {WorkloadKind::kYsb, PolicyKind::kDefault, "YSB (Default)"},
      {WorkloadKind::kYsb, PolicyKind::kKlink, "YSB (Klink)"},
      {WorkloadKind::kLrb, PolicyKind::kDefault, "LRB (Default)"},
      {WorkloadKind::kLrb, PolicyKind::kKlink, "LRB (Klink)"},
  };
  for (const Series& s : series) {
    std::vector<std::string> row = {s.label};
    for (double total : totals) {
      ExperimentConfig config = BaseConfig(executor);
      ApplySmoke(&config);
      config.policy = s.policy;
      config.workload = s.workload;
      config.num_queries = kQueries;
      // LRB splits each query's rate over its three sub-streams.
      config.events_per_second = s.workload == WorkloadKind::kLrb
                                     ? total / kQueries / 3.0
                                     : total / kQueries;
      const ExperimentResult result = RunExperiment(config);
      row.push_back(WindowCell(result.latency, result.mean_latency_s, 3));
    }
    table.AddRow(row);
  }
  table.Print();
  return 0;
}
