// Checkpoint overhead microbenchmark (google-benchmark): the same YSB
// engine run with barrier checkpoints off vs. armed at a 1 s interval.
// Engine throughput (processed events per wall second) off vs. on is the
// overhead number recorded in BENCH_checkpoint.json — barrier alignment,
// operator state serialization, and the fsync'd epoch files (written on
// the coordinator's writer thread, flushed before each iteration ends) all
// land in the "on" lane.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/net/delay_model.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/engine.h"
#include "src/sched/rr_policy.h"
#include "src/workloads/ysb.h"

namespace klink {
namespace {

constexpr int kNumQueries = 4;
constexpr double kRate = 2000.0;
constexpr TimeMicros kRunFor = SecondsToMicros(3);

/// One scratch directory for the whole process; the coordinator's pruning
/// (keep_epochs) bounds what accumulates across iterations.
const std::string& CheckpointDir() {
  static const std::string dir = [] {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                       "/klink_bench_ckpt_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* made = mkdtemp(buf.data());
    KLINK_CHECK(made != nullptr);
    return std::string(made);
  }();
  return dir;
}

void RunYsbEngine(benchmark::State& state, DurationMicros interval) {
  int64_t events = 0;
  for (auto _ : state) {
    EngineConfig config;
    config.num_cores = 4;
    Engine engine(config, std::make_unique<RoundRobinPolicy>());
    for (int q = 0; q < kNumQueries; ++q) {
      YsbConfig wc;
      wc.events_per_second = kRate;
      engine.AddQuery(MakeYsbQuery(q, wc),
                      MakeYsbFeed(wc, std::make_unique<ConstantDelay>(0),
                                  static_cast<uint64_t>(q + 1),
                                  /*start_time=*/0));
    }
    std::unique_ptr<CheckpointCoordinator> coordinator;
    if (interval > 0) {
      CheckpointConfig cc;
      cc.dir = CheckpointDir();
      cc.interval = interval;
      coordinator = std::make_unique<CheckpointCoordinator>(cc);
      for (int q = 0; q < kNumQueries; ++q) {
        coordinator->RegisterQuery(&engine.query(q), {}, nullptr);
      }
      engine.SetCheckpointCoordinator(coordinator.get());
    }
    engine.RunFor(kRunFor);
    if (interval > 0) {
      // Inside the timed loop, so the lane includes the epoch writes. The
      // run must actually have checkpointed, or the lane measures nothing.
      coordinator->Flush();
      KLINK_CHECK_GE(coordinator->last_durable_epoch(), 1u);
    }
    events += engine.metrics().processed_events();
  }
  state.SetItemsProcessed(events);
}

void BM_YsbNoCheckpoint(benchmark::State& state) {
  RunYsbEngine(state, 0);
}
BENCHMARK(BM_YsbNoCheckpoint)->Unit(benchmark::kMillisecond);

void BM_YsbCheckpoint1s(benchmark::State& state) {
  RunYsbEngine(state, SecondsToMicros(1));
}
BENCHMARK(BM_YsbCheckpoint1s)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace klink

BENCHMARK_MAIN();
