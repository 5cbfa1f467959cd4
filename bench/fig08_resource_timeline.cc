// Reproduces Fig. 8: memory and CPU utilization over time for Default vs
// Klink running 60 YSB queries. Expected shape: Default climbs to, and
// pins, the memory ceiling while its CPU utilization sags; Klink's memory
// oscillates (its memory manager periodically releases in-flight volume)
// at a much lower level while CPU utilization stays high.

#include <vector>

#include "bench/bench_common.h"
#include "src/harness/reporter.h"

int main(int argc, char** argv) {
  using namespace klink;
  using namespace klink::bench;

  ExecutorKind executor = ExecutorKind::kSequential;
  if (!ParseArgs(argc, argv, &executor)) return 2;

  const int kQueries = SmokeMode() ? 30 : 60;

  ExperimentResult results[2];
  const PolicyKind policies[2] = {PolicyKind::kDefault, PolicyKind::kKlink};
  for (int i = 0; i < 2; ++i) {
    ExperimentConfig config = BaseConfig(executor);
    ApplySmoke(&config);
    config.policy = policies[i];
    config.workload = WorkloadKind::kYsb;
    config.num_queries = kQueries;
    results[i] = RunExperiment(config);
  }

  TableReporter table(
      "Fig. 8: memory (MB) & CPU (%) utilization over time, 60 YSB queries");
  table.SetHeader({"time_s", "Default_MEM", "Klink_MEM", "Default_CPU",
                   "Klink_CPU"});
  // One row every ~2 s of virtual time.
  const size_t n =
      std::min(results[0].samples.size(), results[1].samples.size());
  const size_t stride = 10;
  for (size_t i = 0; i + 1 < n; i += stride) {
    const ResourceSample& d = results[0].samples[i];
    const ResourceSample& k = results[1].samples[i];
    table.AddRow({TableReporter::Num(MicrosToSeconds(d.time), 1),
                  TableReporter::Num(
                      static_cast<double>(d.memory_bytes) / 1048576.0, 1),
                  TableReporter::Num(
                      static_cast<double>(k.memory_bytes) / 1048576.0, 1),
                  TableReporter::Num(d.cpu_utilization * 100.0, 1),
                  TableReporter::Num(k.cpu_utilization * 100.0, 1)});
  }
  table.Print();
  return 0;
}
