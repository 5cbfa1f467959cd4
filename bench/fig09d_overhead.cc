// Reproduces Fig. 9d: Klink's scheduler overhead (as a percentage of
// throughput: the share of CPU the evaluation borrows from event
// processing) vs. the confidence value f. Expected shape: overhead drops
// slightly as the confidence decreases (narrower intervals mean fewer
// slack-integration steps) but stays well below 1% throughout, so high
// confidence values are essentially free.

#include <vector>

#include "bench/bench_common.h"
#include "src/harness/reporter.h"

int main(int argc, char** argv) {
  using namespace klink;
  using namespace klink::bench;

  ExecutorKind executor = ExecutorKind::kSequential;
  if (!ParseArgs(argc, argv, &executor)) return 2;

  const std::vector<double> confidences = {1.00, 0.99, 0.95, 0.90, 0.67};
  const int kQueries = SmokeMode() ? 30 : 60;

  TableReporter table(
      "Fig. 9d: Klink scheduler overhead (% of throughput) vs confidence");
  table.SetHeader({"confidence", "overhead_%", "mean_latency_s"});

  for (double f : confidences) {
    ExperimentConfig config = BaseConfig(executor);
    ApplySmoke(&config);
    config.policy = PolicyKind::kKlink;
    config.workload = WorkloadKind::kYsb;
    config.num_queries = kQueries;
    config.klink.confidence = f;
    const ExperimentResult result = RunExperiment(config);
    table.AddRow({TableReporter::Num(f * 100.0, 0),
                  TableReporter::Num(result.scheduler_overhead * 100.0, 3),
                  WindowCell(result.latency, result.mean_latency_s, 3)});
  }
  table.Print();
  return 0;
}
