// Ablation of Klink's design components (DESIGN.md "Core design
// decisions"): full Klink vs. (a) no memory management, (b) no SWM
// ingestion estimator (deterministic Eq. 1 slack on raw deadlines),
// (c) short epoch history h, (d) low confidence f. Shows where each
// component earns its keep: the estimator carries the moderate-load
// latency win, MM carries the high-load robustness.

#include <vector>

#include "bench/bench_common.h"
#include "src/harness/reporter.h"

namespace {

using namespace klink;
using namespace klink::bench;

struct Variant {
  const char* label;
  void (*tweak)(ExperimentConfig*);
};

void Full(ExperimentConfig*) {}
void NoMm(ExperimentConfig* c) { c->policy = PolicyKind::kKlinkNoMm; }
void NoEstimator(ExperimentConfig* c) { c->klink.use_estimator = false; }
void ShortHistory(ExperimentConfig* c) { c->klink.history_epochs = 8; }
void LowConfidence(ExperimentConfig* c) { c->klink.confidence = 0.67; }

}  // namespace

int main(int argc, char** argv) {
  ExecutorKind executor = ExecutorKind::kSequential;
  if (!ParseArgs(argc, argv, &executor)) return 2;

  const std::vector<int> query_counts =
      SmokeMode() ? std::vector<int>{40} : std::vector<int>{40, 60, 80};

  TableReporter table(
      "Ablation: Klink variants, YSB mean latency (s) vs #queries");
  std::vector<std::string> header = {"variant"};
  for (int n : query_counts) header.push_back("q=" + std::to_string(n));
  table.SetHeader(header);

  const Variant variants[] = {
      {"Klink (full)", Full},
      {"w/o memory mgmt", NoMm},
      {"w/o SWM estimator", NoEstimator},
      {"history h=8", ShortHistory},
      {"confidence f=67", LowConfidence},
  };
  for (const Variant& v : variants) {
    std::vector<std::string> row = {v.label};
    for (int n : query_counts) {
      ExperimentConfig config = BaseConfig(executor);
      ApplySmoke(&config);
      config.policy = PolicyKind::kKlink;
      config.workload = WorkloadKind::kYsb;
      config.num_queries = n;
      v.tweak(&config);
      const ExperimentResult result = RunExperiment(config);
      row.push_back(WindowCell(result.latency, result.mean_latency_s, 3));
    }
    table.AddRow(row);
  }
  table.Print();
  return 0;
}
