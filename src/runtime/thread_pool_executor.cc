#include "src/runtime/thread_pool_executor.h"

#include "src/common/check.h"

namespace klink {

ThreadPoolExecutor::ThreadPoolExecutor(int num_slots) {
  KLINK_CHECK_GE(num_slots, 1);
  contexts_.reserve(static_cast<size_t>(num_slots));
  for (int i = 0; i < num_slots; ++i) contexts_.emplace_back(i);
  threads_.reserve(static_cast<size_t>(num_slots));
  for (int i = 0; i < num_slots; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPoolExecutor::~ThreadPoolExecutor() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
    work_cv_.NotifyAll();
  }
  // Under the schedule explorer the workers still need turns to observe
  // shutdown_ and sign off; an uninstrumented join would deadlock against
  // the turn token. No-op in production.
  std::vector<std::thread::id> ids;
  for (const std::thread& t : threads_) ids.push_back(t.get_id());
  ScheduleQuiesceBeforeJoin(ids);
  for (std::thread& t : threads_) t.join();
}

const ExecutionContext& ThreadPoolExecutor::context(int slot) const {
  KLINK_CHECK(slot >= 0 && slot < num_slots());
  return contexts_[static_cast<size_t>(slot)];
}

CycleStats ThreadPoolExecutor::ExecuteCycle(
    const std::vector<ExecutorTask>& tasks, double cost_multiplier,
    TimeMicros cycle_start) {
  KLINK_CHECK_LE(tasks.size(), contexts_.size());
  for (const ExecutorTask& task : tasks) KLINK_CHECK(task.query != nullptr);
  for (size_t i = 1; i < tasks.size(); ++i) {
    KLINK_CHECK_GE(tasks[i].stage, tasks[i - 1].stage);  // engine sorts
  }
  // Execute one barrier group per maximal run of equal-stage tasks: the
  // group's slots run concurrently, and the next group starts only after
  // the group barrier. Conservative — stage 0 lanes of *different* queries
  // could overlap stage 1 lanes safely — but a shard lane must never run
  // while its feeding partition (lower stage, same query) still pushes
  // into its input queue, and whole-cycle groups keep the handshake the
  // same as the pre-sharding single-barrier protocol.
  size_t begin = 0;
  while (begin < tasks.size()) {
    size_t end = begin + 1;
    while (end < tasks.size() && tasks[end].stage == tasks[begin].stage) {
      ++end;
    }
    {
      MutexLock lock(&mu_);
      tasks_ = &tasks;
      cost_multiplier_ = cost_multiplier;
      cycle_start_ = cycle_start;
      group_begin_ = begin;
      group_end_ = end;
      remaining_ = static_cast<int>(end - begin);
      ++cycle_seq_;
      work_cv_.NotifyAll();
      // The group barrier: the next stage (and, after the last group,
      // virtual time) may only advance once every slot in the group has
      // drained its quantum.
      while (remaining_ != 0) done_cv_.Wait(mu_);
      tasks_ = nullptr;
    }
    begin = end;
  }
  // Merge in slot order on the engine thread. The barriers above ordered
  // every worker's writes before these reads, and slot order makes the
  // floating-point sum identical to the sequential backend's.
  CycleStats stats;
  for (size_t i = 0; i < tasks.size(); ++i) {
    stats.busy_micros += contexts_[i].cycle_busy_micros();
    stats.processed_events += contexts_[i].cycle_processed_events();
  }
  return stats;
}

void ThreadPoolExecutor::WorkerLoop(int slot) {
  // Participate in explored schedules (schedule_explorer tests); declared
  // before any lock scope so sign-off happens after the last unlock.
  char name[32];
  std::snprintf(name, sizeof(name), "worker-%d", slot);
  ThreadScheduleScope sched(name);

  uint64_t seen = 0;
  for (;;) {
    ExecutorTask task;
    double multiplier = 1.0;
    TimeMicros start = 0;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && cycle_seq_ == seen) work_cv_.Wait(mu_);
      if (shutdown_) return;
      seen = cycle_seq_;
      // tasks_ is null when this slot had no work and the engine already
      // passed the barrier and retired the group before this worker woke;
      // slots outside the published stage group idle until their group.
      if (tasks_ == nullptr || static_cast<size_t>(slot) < group_begin_ ||
          static_cast<size_t>(slot) >= group_end_) {
        continue;  // idle slot this group
      }
      task = (*tasks_)[static_cast<size_t>(slot)];
      multiplier = cost_multiplier_;
      start = cycle_start_;
    }
    // The batched drain keeps its pop/emit scratch inside the context, so
    // each worker touches only its own slot's buffers — no shared mutable
    // state outside the barrier handshake. Running outside the lock is
    // the point: holding mu_ across RunQuery would serialize the pool.
    ExecutionContext& ctx = contexts_[static_cast<size_t>(slot)];
    ctx.BeginCycle(task.budget_micros, multiplier, start);
    ctx.RunQuery(*task.query, task.lane);
    {
      MutexLock lock(&mu_);
      if (--remaining_ == 0) done_cv_.NotifyOne();
    }
  }
}

}  // namespace klink
