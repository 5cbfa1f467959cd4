#ifndef KLINK_TESTS_SUPPORT_SCHEDULE_EXPLORER_H_
#define KLINK_TESTS_SUPPORT_SCHEDULE_EXPLORER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"

namespace klink {

/// Configuration of one explored schedule. The seed fully determines the
/// schedule: thread priorities and priority-demotion steps are derived
/// from it alone, so re-running with the same seed replays the identical
/// interleaving (the program itself is deterministic given the schedule —
/// the engine runs on virtual time).
struct ScheduleExplorerConfig {
  uint64_t seed = 1;
  /// PCT-style priority change points (Burckhardt et al., "A Randomized
  /// Scheduler with Probabilistic Guarantees of Finding Bugs"): at d-1
  /// seed-chosen decision steps the running thread's priority is demoted
  /// below every other thread's, which is what reaches bugs that need a
  /// preemption at one specific instruction window.
  int priority_change_points = 3;
  /// Range the demotion steps are drawn from. Steps past the hint simply
  /// see no further demotions; the hint does not bound the run length.
  uint64_t max_steps_hint = 4096;
  /// Record a human-readable decision trace (TakeTrace). The last
  /// `max_trace` entries are kept; a deadlock report always includes the
  /// tail regardless of this flag.
  bool record_trace = false;
  size_t max_trace = 20000;
};

/// Deterministic schedule explorer for the engine's concurrent protocols
/// (DESIGN.md "Static analysis & schedule exploration").
///
/// Installs itself as the process-wide ScheduleHooks, then serializes all
/// participating threads onto a single turn token: exactly one participant
/// runs at any instant, and at every synchronization point — klink::Mutex
/// acquire/release, CondVar wait/notify, explicit SchedulePoint() — the
/// explorer picks the next thread to run as the highest-priority runnable
/// one under its seeded priorities. Because the token serializes
/// everything, real locks never contend and real condition waits never
/// park in the kernel: waiting threads are parked inside the explorer,
/// which therefore always knows the exact runnable set and can
/// deterministically diagnose a deadlock (no runnable thread while
/// non-ended threads remain) with a full state and trace dump.
///
/// Participants are the thread-pool workers (ThreadScheduleScope in
/// WorkerLoop), the checkpoint writer (CheckpointCoordinator::WriterLoop),
/// the ingest I/O thread (ServeIngest) and the thread that constructed the
/// explorer (registered as "main"). A participant blocked in a system call
/// (ScheduleExternalWait: the I/O thread's poll) gives the token up until
/// it returns, so a schedule with one is not exactly replayable: when the
/// kernel returns it decides when that thread asks for its next turn.
/// Threads that never touch klink sync primitives while an explorer is
/// installed are unaffected.
///
/// Lifecycle:
///   ScheduleExplorer ex({.seed = s});         // installs hooks, owns token
///   ...construct coordinator (spawns its writer) and engine (workers)...
///   ex.AwaitParticipants(2 + workers);        // registration barrier: the
///       // participant set at every later decision is seed-independent of
///       // OS spawn timing, which is what makes seeds replayable
///   ...drive the protocols...
///   ...destroy engine and coordinator (workers and writer end)...
///   // ~ScheduleExplorer uninstalls; all other participants must have
///   // ended (the executor's and the checkpoint coordinator's destructors
///   // quiesce on their own threads before joining them).
class ScheduleExplorer final : public ScheduleHooks {
 public:
  explicit ScheduleExplorer(const ScheduleExplorerConfig& config);
  ~ScheduleExplorer() override;

  ScheduleExplorer(const ScheduleExplorer&) = delete;
  ScheduleExplorer& operator=(const ScheduleExplorer&) = delete;

  /// Blocks the calling (token-holding) thread until `live` participants
  /// (including itself) are registered. Call after constructing each
  /// engine with executor workers and each CheckpointCoordinator, before
  /// driving them.
  void AwaitParticipants(int live);

  /// Scheduling decisions made so far (equal across replays of a seed).
  uint64_t steps() const;
  /// Drains the recorded trace (record_trace only).
  std::vector<std::string> TakeTrace();

  // ScheduleHooks implementation (called from instrumented threads).
  void ThreadBegin(const char* name) override;
  void ThreadEnd() override;
  void Yield(const char* tag) override;
  void LockAcquire(Mutex* mu) override;
  void LockRelease(Mutex* mu) override;
  bool CvWait(void* cv, Mutex* mu, int64_t timeout_micros) override;
  void CvNotify(void* cv) override;
  void ExternalWaitBegin() override;
  void ExternalWaitEnd() override;
  void Quiesce(const std::vector<std::thread::id>& joined) override;

 private:
  enum class Run {
    kRunning,      // holds the turn token
    kReady,        // runnable, waiting for the token
    kBlockedMutex, // needs `wants` free before it can be granted
    kParkedCv,     // waiting for a CvNotify on `parked_on`
    kQuiescing,    // runnable only once every thread in `joins` ended
    kExternal,     // blocked in a system call, without the token
    kEnded,
  };
  struct Thread {
    std::string name;
    int64_t priority = 0;
    Run run = Run::kReady;
    Mutex* wants = nullptr;     // kBlockedMutex / kParkedCv reacquire target
    const void* parked_on = nullptr;  // kParkedCv
    /// kParkedCv in a timed wait: steady-clock micros its timeout fires
    /// at, or -1 for an untimed wait.
    int64_t deadline = -1;
    std::vector<const Thread*> joins;  // kQuiescing
    std::condition_variable cv;
    std::thread::id os_id;
    int index = 0;  // registration order, last-resort tie break
    /// Consecutive picks this thread was runnable and passed over.
    int passed_over = 0;
  };

  Thread* SelfLocked();
  int64_t BasePriority(const std::string& name) const;
  bool RunnableLocked(const Thread& t) const;
  /// Advances the step counter, applies a pending priority demotion, and
  /// appends a trace entry.
  void StepLocked(Thread* self, const char* kind, const char* detail);
  /// Picks the next thread to hold the token and wakes it: the runnable
  /// thread of highest priority, unless another runnable one has been
  /// passed over kMaxPassedOver times in a row (a thread the OS would run
  /// on another core, like the checkpoint writer behind an engine thread
  /// that never waits for it, starves no longer than that). With none
  /// runnable it leaves the token free while a thread is in a system call
  /// (that thread picks on its return), else fires the earliest timed
  /// wait, and aborts with a state + trace dump when non-ended threads
  /// remain but none can ever run (deadlock).
  void PickNextLocked();
  void WaitForTurnLocked(std::unique_lock<std::mutex>& lock, Thread* self);
  /// kReady decision point: yield the token, wait to get it back.
  void RescheduleLocked(std::unique_lock<std::mutex>& lock, Thread* self,
                        const char* kind, const char* detail);
  [[noreturn]] void DeadlockAbortLocked();

  const ScheduleExplorerConfig config_;

  mutable std::mutex m_;  // the explorer's own lock, below all klink locks
  std::condition_variable participants_cv_;
  std::vector<std::unique_ptr<Thread>> threads_;
  std::map<std::thread::id, Thread*> by_os_id_;
  std::map<const Mutex*, Thread*> owner_;
  Thread* current_ = nullptr;
  uint64_t steps_ = 0;
  /// Remaining seed-chosen demotion steps, descending (back() is next).
  std::vector<uint64_t> demote_steps_;
  int64_t next_demoted_priority_ = -1;
  std::vector<std::string> trace_;
};

}  // namespace klink

#endif  // KLINK_TESTS_SUPPORT_SCHEDULE_EXPLORER_H_
