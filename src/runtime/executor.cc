#include "src/runtime/executor.h"

#include <algorithm>
#include <cstdio>

#include "src/common/check.h"

namespace klink {

const char* ExecutorKindName(ExecutorKind kind) {
  switch (kind) {
    case ExecutorKind::kSequential:
      return "sequential";
    case ExecutorKind::kThreads:
      return "threads";
  }
  return "?";
}

bool ParseExecutorKind(const std::string& s, ExecutorKind* out) {
  if (s == "sequential") {
    *out = ExecutorKind::kSequential;
    return true;
  }
  if (s == "threads") {
    *out = ExecutorKind::kThreads;
    return true;
  }
  return false;
}

Executor::Executor(ExecutorKind kind, int num_slots) {
  KLINK_CHECK_GE(num_slots, 1);
  contexts_.reserve(static_cast<size_t>(num_slots));
  for (int i = 0; i < num_slots; ++i) contexts_.emplace_back(i);
  if (kind == ExecutorKind::kSequential) return;
  const int cpus =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int workers = std::min(num_slots, cpus) - 1;
  threads_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

Executor::~Executor() {
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

const ExecutionContext& Executor::context(int slot) const {
  KLINK_CHECK(slot >= 0 && slot < num_slots());
  return contexts_[static_cast<size_t>(slot)];
}

CycleStats Executor::ExecuteCycle(const std::vector<ExecutorTask>& tasks,
                                  double cost_multiplier,
                                  TimeMicros cycle_start) {
  KLINK_CHECK_LE(tasks.size(), contexts_.size());
  for (const ExecutorTask& task : tasks) KLINK_CHECK(task.query != nullptr);
  for (size_t i = 1; i < tasks.size(); ++i) {
    KLINK_CHECK_GE(tasks[i].stage, tasks[i - 1].stage);  // engine sorts
  }
  // One group per maximal run of equal-stage tasks; the next group starts
  // only after every task of this one has finished. Conservative — stage
  // 0 lanes of *different* queries could overlap stage 1 lanes safely —
  // but a shard lane must never run while its feeding partition (lower
  // stage, same query) still pushes into its input queue.
  size_t begin = 0;
  while (begin < tasks.size()) {
    size_t end = begin + 1;
    while (end < tasks.size() && tasks[end].stage == tasks[begin].stage) {
      ++end;
    }
    if (threads_.empty() || end - begin == 1) {
      for (size_t i = begin; i < end; ++i) {
        RunTask(i, tasks[i], cost_multiplier, cycle_start);
      }
    } else {
      {
        MutexLock lock(&mu_);
        tasks_ = &tasks;
        cost_multiplier_ = cost_multiplier;
        cycle_start_ = cycle_start;
        next_ = begin;
        group_end_ = end;
        unfinished_ = static_cast<int>(end - begin);
        work_cv_.NotifyAll();
      }
      DrainGroup();  // the calling thread claims tasks too
      MutexLock lock(&mu_);
      while (unfinished_ != 0) done_cv_.Wait(mu_);
      tasks_ = nullptr;
    }
    begin = end;
  }
  // Merge in slot order on the calling thread. The group barriers ordered
  // every worker's writes before these reads, and slot order makes the
  // floating-point sum the same for every kind and worker count.
  CycleStats stats;
  for (size_t i = 0; i < tasks.size(); ++i) {
    stats.busy_micros += contexts_[i].cycle_busy_micros();
    stats.processed_events += contexts_[i].cycle_processed_events();
  }
  return stats;
}

void Executor::DrainGroup() {
  bool finished_one = false;
  for (;;) {
    size_t slot = 0;
    ExecutorTask task;
    double multiplier = 1.0;
    TimeMicros start = 0;
    {
      MutexLock lock(&mu_);
      if (finished_one && --unfinished_ == 0) done_cv_.NotifyOne();
      if (next_ == group_end_) return;
      slot = next_++;
      task = (*tasks_)[slot];
      multiplier = cost_multiplier_;
      start = cycle_start_;
    }
    // Outside the lock: holding mu_ across the drain would serialize the
    // pool. The context and the batch scratch it holds belong to the
    // task's slot, which no other thread touches until the barrier.
    RunTask(slot, task, multiplier, start);
    finished_one = true;
  }
}

void Executor::RunTask(size_t slot, const ExecutorTask& task,
                       double cost_multiplier, TimeMicros cycle_start) {
  ExecutionContext& ctx = contexts_[slot];
  ctx.BeginCycle(task.budget_micros, cost_multiplier, cycle_start);
  ctx.RunQuery(*task.query, task.lane);
}

void Executor::WorkerLoop(int worker) {
  // Participate in explored schedules (schedule_explorer tests); declared
  // before any lock scope so sign-off happens after the last unlock.
  char name[32];
  std::snprintf(name, sizeof(name), "worker-%d", worker);
  ThreadScheduleScope sched(name);
  for (;;) {
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && next_ == group_end_) work_cv_.Wait(mu_);
      if (shutdown_) return;
    }
    DrainGroup();
  }
}

}  // namespace klink
