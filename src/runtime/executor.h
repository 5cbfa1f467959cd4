#ifndef KLINK_RUNTIME_EXECUTOR_H_
#define KLINK_RUNTIME_EXECUTOR_H_

#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/common/types.h"
#include "src/query/query.h"
#include "src/runtime/execution_context.h"

namespace klink {

/// How the executor runs a cycle's task slots. Both kinds give
/// bit-identical results; only the OS threads that drain the slots differ.
enum class ExecutorKind {
  /// No worker thread: the calling thread drains every slot in slot order.
  /// The default.
  kSequential,
  /// A host-sized pool: min(slots, CPUs) - 1 workers drain the slots of
  /// each stage group alongside the calling thread. The determinism oracle
  /// for the concurrent protocols, and what runs shard lanes in parallel.
  kThreads,
};

const char* ExecutorKindName(ExecutorKind kind);

/// Parses "sequential" / "threads". Returns false on unknown names.
bool ParseExecutorKind(const std::string& s, ExecutorKind* out);

/// One slot's work for a cycle, resolved by the engine from the policy's
/// Selection: tasks[i] runs on slot i of the executor.
///
/// `lane` selects one lane of a sharded query (-1 = whole query); `stage`
/// is that lane's pipeline stage. The engine publishes tasks sorted by
/// stage (stable), and no task runs before every lower-stage task has
/// finished: stage order is what keeps a shard lane from racing the
/// partition that feeds it or the merge that drains it.
struct ExecutorTask {
  Query* query = nullptr;
  double budget_micros = 0.0;
  int lane = -1;
  int stage = 0;
};

/// Per-cycle counters merged across slots at the cycle barrier, slot by
/// slot in slot order, so the floating-point sums are bit-identical
/// whichever slot finishes first.
struct CycleStats {
  double busy_micros = 0.0;
  int64_t processed_events = 0;
};

/// Runs one scheduling cycle's slot assignments. Slots are data, not
/// threads: task i drains on slot i's ExecutionContext whichever thread
/// claims it. Each maximal run of equal-stage tasks is one group; groups
/// run one after another, and a group's tasks are claimed in slot order
/// by the calling thread and the workers. A one-task group, and every
/// group when there are no workers, runs inline on the calling thread.
///
/// The determinism contract: given the same tasks and the same query
/// state, every kind and worker count leaves the queries in the same
/// state and returns the same CycleStats. This holds because tasks carry
/// distinct (query, lane) units touching disjoint operators and queues,
/// stage order serializes producer lanes before consumer lanes, and a
/// slot's virtual time depends only on its own consumption. All
/// engine-side bookkeeping stays on the calling thread between cycles.
class Executor {
 public:
  /// kSequential starts no thread; kThreads starts min(num_slots, CPUs) - 1
  /// (a CPU count the host does not report reads as 1).
  Executor(ExecutorKind kind, int num_slots);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  int num_slots() const { return static_cast<int>(contexts_.size()); }
  /// Worker threads; the calling thread drains too and is not counted.
  int num_workers() const { return static_cast<int>(threads_.size()); }

  /// Per-slot execution state (cumulative busy/processed counters).
  const ExecutionContext& context(int slot) const;

  /// Executes tasks[i] on slot i with the cycle's cost multiplier and
  /// virtual start time, returning once every task has finished.
  /// tasks.size() must not exceed num_slots().
  CycleStats ExecuteCycle(const std::vector<ExecutorTask>& tasks,
                          double cost_multiplier, TimeMicros cycle_start);

 private:
  void WorkerLoop(int worker);
  /// Claims and runs tasks of the published group until none is left.
  void DrainGroup();
  void RunTask(size_t slot, const ExecutorTask& task, double cost_multiplier,
               TimeMicros cycle_start);

  /// Per-slot contexts are cross-thread but not mu_-guarded: slot i is
  /// written only by the thread that claimed task i, between the claim and
  /// its decrement of unfinished_, and read by the calling thread only
  /// after the group barrier; the mu_-guarded handshake orders those
  /// accesses (DESIGN.md "Static analysis & schedule exploration").
  std::vector<ExecutionContext> contexts_;

  Mutex mu_{"executor.mu"};
  CondVar work_cv_;  // calling thread -> workers: group published
  CondVar done_cv_;  // workers -> calling thread: group finished
  const std::vector<ExecutorTask>* tasks_ KLINK_GUARDED_BY(mu_) = nullptr;
  double cost_multiplier_ KLINK_GUARDED_BY(mu_) = 1.0;
  TimeMicros cycle_start_ KLINK_GUARDED_BY(mu_) = 0;
  /// The published group's unclaimed tasks are [next_, group_end_).
  size_t next_ KLINK_GUARDED_BY(mu_) = 0;
  size_t group_end_ KLINK_GUARDED_BY(mu_) = 0;
  /// Claimed or unclaimed tasks of the group not yet finished.
  int unfinished_ KLINK_GUARDED_BY(mu_) = 0;
  bool shutdown_ KLINK_GUARDED_BY(mu_) = false;
  /// Declared last: the workers use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace klink

#endif  // KLINK_RUNTIME_EXECUTOR_H_
