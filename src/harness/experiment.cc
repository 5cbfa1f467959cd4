#include "src/harness/experiment.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/sched/default_policy.h"
#include "src/sched/fcfs_policy.h"
#include "src/sched/hr_policy.h"
#include "src/sched/rr_policy.h"
#include "src/sched/sbox_policy.h"
#include "src/workloads/lrb.h"
#include "src/workloads/nyt.h"
#include "src/workloads/ysb.h"

namespace klink {
namespace {

/// Decorator invoking a probe with every snapshot before delegating.
class ProbePolicy final : public SchedulingPolicy {
 public:
  ProbePolicy(std::unique_ptr<SchedulingPolicy> inner, SnapshotProbe probe)
      : inner_(std::move(inner)), probe_(std::move(probe)) {}

  std::string name() const override { return inner_->name(); }

  void SelectQueries(const RuntimeSnapshot& snapshot, int slots,
                     Selection* out) override {
    probe_(snapshot);
    inner_->SelectQueries(snapshot, slots, out);
  }

  double EvaluationCostMicros(const RuntimeSnapshot& snapshot) override {
    return inner_->EvaluationCostMicros(snapshot);
  }

  SchedulingPolicy* inner() { return inner_.get(); }

 private:
  std::unique_ptr<SchedulingPolicy> inner_;
  SnapshotProbe probe_;
};

constexpr std::pair<const char*, WorkloadKind> kWorkloadFlags[] = {
    {"ysb", WorkloadKind::kYsb},
    {"lrb", WorkloadKind::kLrb},
    {"nyt", WorkloadKind::kNyt},
};
constexpr std::pair<const char*, DelayKind> kDelayFlags[] = {
    {"uniform", DelayKind::kUniform},
    {"zipf", DelayKind::kZipf},
    {"pareto", DelayKind::kPareto},
};

template <typename Kind, size_t N>
const char* FlagName(const std::pair<const char*, Kind> (&table)[N],
                     Kind kind) {
  for (const auto& [name, k] : table) {
    if (k == kind) return name;
  }
  return "?";
}

template <typename Kind, size_t N>
bool ParseFlag(const std::pair<const char*, Kind> (&table)[N],
               const std::string& name, Kind* out) {
  for (const auto& [n, kind] : table) {
    if (name == n) {
      *out = kind;
      return true;
    }
  }
  return false;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

}  // namespace

const char* PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kDefault:
      return "Default";
    case PolicyKind::kFcfs:
      return "FCFS";
    case PolicyKind::kRoundRobin:
      return "RR";
    case PolicyKind::kHighestRate:
      return "HR";
    case PolicyKind::kStreamBox:
      return "SBox";
    case PolicyKind::kKlink:
      return "Klink";
    case PolicyKind::kKlinkNoMm:
      return "Klink (w/o MM)";
  }
  return "?";
}

const char* WorkloadKindName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kYsb:
      return "YSB";
    case WorkloadKind::kLrb:
      return "LRB";
    case WorkloadKind::kNyt:
      return "NYT";
  }
  return "?";
}

const char* DelayKindName(DelayKind kind) {
  switch (kind) {
    case DelayKind::kUniform:
      return "Uniform";
    case DelayKind::kZipf:
      return "Zipf";
    case DelayKind::kPareto:
      return "Pareto";
  }
  return "?";
}

const char* WorkloadFlagName(WorkloadKind kind) {
  return FlagName(kWorkloadFlags, kind);
}

bool ParseWorkloadFlag(const std::string& name, WorkloadKind* out) {
  return ParseFlag(kWorkloadFlags, name, out);
}

const char* DelayFlagName(DelayKind kind) {
  return FlagName(kDelayFlags, kind);
}

bool ParseDelayFlag(const std::string& name, DelayKind* out) {
  return ParseFlag(kDelayFlags, name, out);
}

std::unique_ptr<SchedulingPolicy> MakePolicy(
    PolicyKind kind, const KlinkPolicyConfig& klink_config, uint64_t seed) {
  switch (kind) {
    case PolicyKind::kDefault:
      return std::make_unique<DefaultPolicy>(seed);
    case PolicyKind::kFcfs:
      return std::make_unique<FcfsPolicy>();
    case PolicyKind::kRoundRobin:
      return std::make_unique<RoundRobinPolicy>();
    case PolicyKind::kHighestRate:
      return std::make_unique<HighestRatePolicy>();
    case PolicyKind::kStreamBox:
      return std::make_unique<StreamBoxPolicy>();
    case PolicyKind::kKlink: {
      KlinkPolicyConfig c = klink_config;
      c.enable_memory_management = true;
      return std::make_unique<KlinkPolicy>(c);
    }
    case PolicyKind::kKlinkNoMm: {
      KlinkPolicyConfig c = klink_config;
      c.enable_memory_management = false;
      return std::make_unique<KlinkPolicy>(c);
    }
  }
  return nullptr;
}

std::unique_ptr<DelayModel> MakeDelayModel(DelayKind kind) {
  switch (kind) {
    case DelayKind::kUniform:
      return MakePaperUniformDelay();
    case DelayKind::kZipf:
      return MakePaperZipfDelay();
    case DelayKind::kPareto:
      return MakeDefaultParetoDelay();
  }
  return nullptr;
}

DurationMicros WatermarkLagFor(DelayKind kind) {
  switch (kind) {
    case DelayKind::kUniform:
      return MillisToMicros(120);  // max delay 100 ms + margin
    case DelayKind::kZipf:
      return MillisToMicros(450);  // max delay ~403 ms + margin
    case DelayKind::kPareto:
      // Deliberately NOT tail-covering: with alpha = 1.5 and 20 ms scale
      // about 2% of events arrive behind this watermark, the regime the
      // allowed-lateness horizon exists for.
      return MillisToMicros(250);
  }
  return MillisToMicros(150);
}

DurationMicros WindowOffsetRange(WorkloadKind workload) {
  switch (workload) {
    case WorkloadKind::kYsb:
      return YsbConfig::window_size;
    case WorkloadKind::kLrb:
      return LrbConfig::join_window;
    case WorkloadKind::kNyt:
      return NytConfig::slide;
  }
  return 0;
}

void MakeTenant(const TenantSpec& spec, QueryId id,
                std::unique_ptr<Query>* query,
                std::unique_ptr<EventFeed>* feed,
                std::unique_ptr<DelayModel> delay, uint64_t feed_seed,
                TimeMicros start_time) {
  switch (spec.workload) {
    case WorkloadKind::kYsb: {
      YsbConfig wc;
      wc.events_per_second = spec.events_per_second;
      wc.watermark_lag = spec.watermark_lag;
      wc.window_offset = spec.window_offset;
      wc.allowed_lateness = spec.allowed_lateness;
      wc.shards = spec.shards;
      wc.max_shards = spec.max_shards;
      wc.key_skew = spec.key_skew;
      if (query != nullptr) *query = MakeYsbQuery(id, wc);
      if (feed != nullptr) {
        *feed = MakeYsbFeed(wc, std::move(delay), feed_seed, start_time);
      }
      return;
    }
    case WorkloadKind::kLrb: {
      // LRB's windowed join builds no shard region.
      LrbConfig wc;
      wc.events_per_substream_per_second = spec.events_per_second;
      wc.watermark_lag = spec.watermark_lag;
      wc.window_offset = spec.window_offset;
      wc.allowed_lateness = spec.allowed_lateness;
      wc.key_skew = spec.key_skew;
      if (query != nullptr) *query = MakeLrbQuery(id, wc);
      if (feed != nullptr) {
        *feed = MakeLrbFeed(wc, std::move(delay), feed_seed, start_time);
      }
      return;
    }
    case WorkloadKind::kNyt: {
      NytConfig wc;
      wc.events_per_second = spec.events_per_second;
      wc.watermark_lag = spec.watermark_lag;
      wc.window_offset = spec.window_offset;
      wc.allowed_lateness = spec.allowed_lateness;
      wc.shards = spec.shards;
      wc.max_shards = spec.max_shards;
      wc.key_skew = spec.key_skew;
      if (query != nullptr) *query = MakeNytQuery(id, wc);
      if (feed != nullptr) {
        *feed = MakeNytFeed(wc, std::move(delay), feed_seed, start_time);
      }
      return;
    }
  }
}

TenantSpec TenantOf(const ExperimentConfig& config,
                    DurationMicros window_offset) {
  TenantSpec spec;
  spec.workload = config.workload;
  spec.events_per_second = config.events_per_second;
  spec.watermark_lag = WatermarkLagFor(config.delay);
  spec.window_offset = window_offset;
  spec.allowed_lateness = config.allowed_lateness;
  spec.shards = config.shards;
  spec.max_shards = config.max_shards;
  return spec;
}

Status ValidateEventRate(double events_per_second) {
  if (!(events_per_second > 0.0)) {
    return Status::InvalidArgument(
        "events_per_second (--rate) must be > 0");
  }
  if (events_per_second > kMaxEventsPerSecond) {
    return Status::InvalidArgument(
        "events_per_second (--rate) must be <= " +
        std::to_string(static_cast<int64_t>(kMaxEventsPerSecond)));
  }
  return Status::Ok();
}

Status ExperimentConfig::Validate() const {
  if (num_queries < 1) {
    return Status::InvalidArgument("num_queries (--queries) must be >= 1");
  }
  if (const Status rate = ValidateEventRate(events_per_second); !rate.ok()) {
    return rate;
  }
  if (warmup < 0) {
    return Status::InvalidArgument("warmup (--warmup) must be >= 0");
  }
  if (duration <= warmup) {
    return Status::InvalidArgument(
        "duration (--duration) must exceed warmup (--warmup)");
  }
  const Status klink_valid = klink.Validate();
  if (!klink_valid.ok()) return klink_valid;
  return engine.Validate();
}

ExperimentResult RunExperiment(const ExperimentConfig& config,
                               SnapshotProbe probe) {
  KLINK_CHECK_OK(config.Validate());

  KlinkPolicyConfig klink_config = config.klink;
  klink_config.cycle_length = config.engine.cycle_length;
  std::unique_ptr<SchedulingPolicy> policy =
      MakePolicy(config.policy, klink_config, config.seed ^ 0x5eedULL);
  KlinkPolicy* klink_policy = dynamic_cast<KlinkPolicy*>(policy.get());
  if (probe != nullptr) {
    policy =
        std::make_unique<ProbePolicy>(std::move(policy), std::move(probe));
  }

  Engine engine(config.engine, std::move(policy));
  Rng rng(config.seed);

  // Each query draws its deploy time, feed seed and window offset, in that
  // order; every in-process figure depends on it. (klink_run --listen and
  // loadgen draw differently: see there.)
  int undeployed_queries = 0;
  for (int q = 0; q < config.num_queries; ++q) {
    const TimeMicros deploy =
        config.deploy_spread > 0 ? rng.NextInt(0, config.deploy_spread) : 0;
    if (deploy >= config.duration) ++undeployed_queries;
    const uint64_t feed_seed = rng.NextUint64();
    const TenantSpec tenant = TenantOf(
        config, rng.NextInt(0, WindowOffsetRange(config.workload) - 1));
    std::unique_ptr<Query> query;
    std::unique_ptr<EventFeed> feed;
    MakeTenant(tenant, q, &query, &feed, MakeDelayModel(config.delay),
               feed_seed, deploy);
    engine.AddQuery(std::move(query), std::move(feed), deploy);
  }

  // Warm up, then reset the latency statistics so the report covers
  // steady state only.
  engine.RunUntil(config.warmup);
  for (int q = 0; q < engine.num_queries(); ++q) {
    engine.query(q).sink().ResetStats();
  }
  const int64_t processed_at_warmup = engine.metrics().processed_events();
  const double busy_at_warmup = engine.metrics().core_busy_micros();
  const double sched_at_warmup = engine.metrics().scheduler_micros();

  engine.RunUntil(config.duration);

  ExperimentResult result;
  result.policy_name = PolicyKindName(config.policy);
  result.undeployed_queries = undeployed_queries;
  result.latency = engine.AggregateSwmLatency();
  result.mean_latency_s = result.latency.mean() / 1e6;
  result.p50_latency_s = static_cast<double>(result.latency.Percentile(50)) / 1e6;
  result.p90_latency_s = static_cast<double>(result.latency.Percentile(90)) / 1e6;
  result.p99_latency_s = static_cast<double>(result.latency.Percentile(99)) / 1e6;

  const double measured_seconds =
      MicrosToSeconds(config.duration - config.warmup);
  result.throughput_eps =
      static_cast<double>(engine.metrics().processed_events() -
                          processed_at_warmup) /
      measured_seconds;
  result.slowdown = engine.MeanSlowdown();

  const double busy = engine.metrics().core_busy_micros() - busy_at_warmup;
  const double sched = engine.metrics().scheduler_micros() - sched_at_warmup;
  result.scheduler_overhead =
      (busy + sched) <= 0.0 ? 0.0 : sched / (busy + sched);

  std::vector<double> cpu, mem;
  for (const ResourceSample& s : engine.metrics().samples()) {
    if (s.time < config.warmup) continue;
    cpu.push_back(s.cpu_utilization);
    mem.push_back(static_cast<double>(s.memory_bytes));
    result.samples.push_back(s);
  }
  if (!cpu.empty()) {
    double cpu_sum = 0.0, mem_sum = 0.0;
    for (double c : cpu) cpu_sum += c;
    for (double m : mem) mem_sum += m;
    result.mean_cpu_utilization = cpu_sum / static_cast<double>(cpu.size());
    result.mean_memory_bytes = mem_sum / static_cast<double>(mem.size());
    result.p90_cpu_utilization = Percentile(cpu, 90.0);
    result.p90_memory_bytes = Percentile(mem, 90.0);
  }
  result.peak_memory_bytes = engine.memory().peak_bytes();

  if (klink_policy != nullptr) {
    result.estimator_accuracy = klink_policy->EstimatorAccuracy();
    result.estimator_predictions = klink_policy->total_predictions();
    result.estimator_mae_s = klink_policy->EstimatorMeanAbsErrorMicros() / 1e6;
  }
  for (const QueryFabric::LiveQuery& lq : engine.fabric().live()) {
    result.late += CollectQueryLateMetrics(*lq.query);
  }
  return result;
}

}  // namespace klink
