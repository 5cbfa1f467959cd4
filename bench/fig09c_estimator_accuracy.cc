// Reproduces Fig. 9c: SWM ingestion estimation accuracy under Uniform and
// Zipf(0.99) network delay for Klink's estimator at confidence 95 and 90
// (Klink-95 / Klink-90) and the gradient-descent linear-regression
// baseline (LR). Accuracy is the fraction of SWMs whose actual ingestion
// time falls inside the interval frozen at the start of the epoch
// (Sec. 6.2.5). Expected shape: Klink-95 > Klink-90 >> LR, with LR
// degrading sharply under the heavy-tailed Zipf delays (paper: 98/95/80%
// uniform, 95/85/62% Zipf).

#include <map>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "src/harness/reporter.h"
#include "src/klink/linear_regression.h"
#include "src/klink/swm_estimator.h"

namespace {

using namespace klink;
using namespace klink::bench;

/// A bank of shadow estimators fed from the runtime snapshots of a live
/// engine run, one instance per (query, windowed op, input stream).
class EstimatorBank {
 public:
  using Factory = std::function<std::unique_ptr<IngestionEstimator>()>;

  explicit EstimatorBank(Factory factory) : factory_(std::move(factory)) {}

  void Observe(const RuntimeSnapshot& snap) {
    for (const QueryInfo& q : snap.queries) {
      for (const StreamProgress& p : q.streams) {
        const uint64_t key = (static_cast<uint64_t>(q.id) << 24) |
                             (static_cast<uint64_t>(p.op_index) << 8) |
                             static_cast<uint64_t>(p.stream);
        auto it = estimators_.find(key);
        if (it == estimators_.end()) {
          it = estimators_.emplace(key, factory_()).first;
        }
        it->second->Observe(p);
      }
    }
  }

  double Accuracy() const {
    int64_t hits = 0, preds = 0;
    for (const auto& [key, est] : estimators_) {
      hits += est->hits();
      preds += est->predictions();
    }
    return preds == 0 ? 0.0 : 100.0 * static_cast<double>(hits) /
                                  static_cast<double>(preds);
  }

  int64_t Predictions() const {
    int64_t preds = 0;
    for (const auto& [key, est] : estimators_) preds += est->predictions();
    return preds;
  }

 private:
  Factory factory_;
  std::map<uint64_t, std::unique_ptr<IngestionEstimator>> estimators_;
};

}  // namespace

int main(int argc, char** argv) {
  ExecutorKind executor = ExecutorKind::kSequential;
  if (!ParseArgs(argc, argv, &executor)) return 2;

  TableReporter table(
      "Fig. 9c: SWM ingestion estimation accuracy (%) by delay distribution");
  table.SetHeader({"estimator", "Uniform", "Zipf", "predictions"});

  struct SeriesResult {
    double accuracy[2];
    int64_t predictions = 0;
  };
  std::map<std::string, SeriesResult> results;

  const DelayKind delays[2] = {DelayKind::kUniform, DelayKind::kZipf};
  for (int d = 0; d < 2; ++d) {
    EstimatorBank klink95(
        [] { return std::make_unique<KlinkEstimator>(400, 0.95); });
    EstimatorBank klink90(
        [] { return std::make_unique<KlinkEstimator>(400, 0.90); });
    EstimatorBank lr([] { return std::make_unique<LinearRegressionEstimator>(); });

    ExperimentConfig config = BaseConfig(executor);
    ApplySmoke(&config);
    config.policy = PolicyKind::kKlink;
    config.workload = WorkloadKind::kYsb;
    config.delay = delays[d];
    config.num_queries = 20;
    if (!SmokeMode()) config.duration = SecondsToMicros(240);
    RunExperiment(config, [&](const RuntimeSnapshot& snap) {
      klink95.Observe(snap);
      klink90.Observe(snap);
      lr.Observe(snap);
    });
    results["Klink-95"].accuracy[d] = klink95.Accuracy();
    results["Klink-95"].predictions = klink95.Predictions();
    results["Klink-90"].accuracy[d] = klink90.Accuracy();
    results["Klink-90"].predictions = klink90.Predictions();
    results["LR"].accuracy[d] = lr.Accuracy();
    results["LR"].predictions = lr.Predictions();
  }

  for (const char* name : {"LR", "Klink-90", "Klink-95"}) {
    const SeriesResult& r = results[name];
    table.AddRow({name, TableReporter::Num(r.accuracy[0], 1),
                  TableReporter::Num(r.accuracy[1], 1),
                  std::to_string(r.predictions)});
  }
  table.Print();
  return 0;
}
