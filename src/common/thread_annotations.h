#ifndef KLINK_COMMON_THREAD_ANNOTATIONS_H_
#define KLINK_COMMON_THREAD_ANNOTATIONS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

/// Clang Thread Safety Analysis annotations plus the annotated mutex
/// wrappers every lock in the engine goes through (DESIGN.md "Static
/// analysis & schedule exploration").
///
/// The macros expand to clang `capability` attributes so that a clang
/// build with -Wthread-safety (wired up under KLINK_WERROR in the
/// top-level CMakeLists, and enforced by the CI thread-safety job) proves
/// at compile time that every KLINK_GUARDED_BY field is only touched with
/// its mutex held and every KLINK_REQUIRES contract is met at each call
/// site. Under GCC the attributes vanish; tools/klink_lint.py's
/// guarded-by and lock-order rules re-check the same annotations
/// lexically so non-clang builds keep a (weaker) net.
///
/// klink::Mutex / klink::MutexLock / klink::CondVar wrap the std
/// primitives for two reasons:
///  1. they carry the capability annotations (std::mutex has none), and
///  2. they route every acquire/release/wait/notify through the
///     ScheduleHooks seam below, which is how the schedule explorer
///     (tests/support/schedule_explorer.h) gains control of thread
///     interleavings in tests. In production the seam is a single
///     relaxed-free atomic load that sees nullptr.

#if defined(__clang__) && !defined(SWIG)
#define KLINK_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define KLINK_THREAD_ANNOTATION__(x)  // no-op outside clang
#endif

#define KLINK_CAPABILITY(x) KLINK_THREAD_ANNOTATION__(capability(x))
#define KLINK_SCOPED_CAPABILITY KLINK_THREAD_ANNOTATION__(scoped_lockable)
#define KLINK_GUARDED_BY(x) KLINK_THREAD_ANNOTATION__(guarded_by(x))
#define KLINK_PT_GUARDED_BY(x) KLINK_THREAD_ANNOTATION__(pt_guarded_by(x))
#define KLINK_ACQUIRED_BEFORE(...) \
  KLINK_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define KLINK_ACQUIRED_AFTER(...) \
  KLINK_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))
#define KLINK_REQUIRES(...) \
  KLINK_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define KLINK_REQUIRES_SHARED(...) \
  KLINK_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))
#define KLINK_ACQUIRE(...) \
  KLINK_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define KLINK_ACQUIRE_SHARED(...) \
  KLINK_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define KLINK_RELEASE(...) \
  KLINK_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define KLINK_RELEASE_SHARED(...) \
  KLINK_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
#define KLINK_TRY_ACQUIRE(...) \
  KLINK_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define KLINK_EXCLUDES(...) \
  KLINK_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
#define KLINK_ASSERT_CAPABILITY(x) \
  KLINK_THREAD_ANNOTATION__(assert_capability(x))
#define KLINK_RETURN_CAPABILITY(x) \
  KLINK_THREAD_ANNOTATION__(lock_returned(x))
#define KLINK_NO_THREAD_SAFETY_ANALYSIS \
  KLINK_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace klink {

class Mutex;

/// Test-only scheduling instrumentation seam. When installed (schedule
/// explorer tests only), every klink::Mutex acquire/release and every
/// klink::CondVar wait/notify reports here first, which lets the explorer
/// serialize the participating threads and choose who runs next. All
/// methods are called from the instrumented thread itself.
class ScheduleHooks {
 public:
  virtual ~ScheduleHooks() = default;

  /// Thread lifecycle: a participating thread announces itself before its
  /// first synchronization operation and signs off after its last (see
  /// ThreadScheduleScope). Begin blocks until the explorer admits the
  /// thread into the schedule.
  virtual void ThreadBegin(const char* name) = 0;
  virtual void ThreadEnd() = 0;

  /// Explicit preemption point (SchedulePoint below).
  virtual void Yield(const char* tag) = 0;

  /// Called before the real mutex acquire; blocks until the explorer
  /// grants the turn *and* no other participating thread owns `mu`, so
  /// the real lock below never contends among participants.
  virtual void LockAcquire(Mutex* mu) = 0;
  /// Called after the real mutex release.
  virtual void LockRelease(Mutex* mu) = 0;

  /// Called with `mu` held in place of a real condition wait. Returns
  /// true when the hook handled the wait (parked the thread until a
  /// CvNotify on `cv`, then reacquired `mu`); false to fall back to the
  /// real wait (non-participating thread). Spurious wakeups allowed —
  /// callers loop on their predicate either way. A timed wait
  /// (`timeout_micros` >= 0; -1 waits for a notify) also ends once its
  /// timeout passed and the explorer picks it, or early when no other
  /// participant could ever wake it.
  virtual bool CvWait(void* cv, Mutex* mu, int64_t timeout_micros) = 0;
  /// Called on notify_one/notify_all before the real notification.
  virtual void CvNotify(void* cv) = 0;

  /// Bracket a blocking system call outside every klink primitive (the
  /// ingest I/O thread's poll()): the other participants run meanwhile,
  /// and End waits for the turn again.
  virtual void ExternalWaitBegin() = 0;
  virtual void ExternalWaitEnd() = 0;

  /// Called by a thread about to perform an uninstrumented blocking join
  /// on the participating threads `joined`: grants turns until each of
  /// them has signed off (ThreadEnd), so the join cannot deadlock against
  /// the explorer's turn token. Other participants may stay parked.
  virtual void Quiesce(const std::vector<std::thread::id>& joined) = 0;
};

/// The installed hooks, or nullptr in production. Install/uninstall only
/// while no instrumented thread is running (the explorer's constructor
/// and destructor own this).
inline std::atomic<ScheduleHooks*>& ScheduleHooksSlot() {
  static std::atomic<ScheduleHooks*> slot{nullptr};
  return slot;
}

inline ScheduleHooks* GetScheduleHooks() {
  return ScheduleHooksSlot().load(std::memory_order_acquire);
}

inline void SetScheduleHooks(ScheduleHooks* hooks) {
  ScheduleHooksSlot().store(hooks, std::memory_order_release);
}

/// Explicit preemption point. No-op in production; under the schedule
/// explorer this is a decision point where another thread may be run.
inline void SchedulePoint(const char* tag) {
  if (ScheduleHooks* h = GetScheduleHooks()) h->Yield(tag);
}

/// RAII participation marker for a thread that takes part in explored
/// schedules (the thread-pool workers). Declare first in the thread's
/// top-level function so ThreadEnd runs after every lock scope unwound.
class ThreadScheduleScope {
 public:
  explicit ThreadScheduleScope(const char* name) {
    if (ScheduleHooks* h = GetScheduleHooks()) {
      hooks_ = h;
      h->ThreadBegin(name);
    }
  }
  ~ThreadScheduleScope() {
    if (hooks_ != nullptr) hooks_->ThreadEnd();
  }

  ThreadScheduleScope(const ThreadScheduleScope&) = delete;
  ThreadScheduleScope& operator=(const ThreadScheduleScope&) = delete;

 private:
  /// Captured at Begin so a hook uninstalled mid-run still gets its End.
  ScheduleHooks* hooks_ = nullptr;
};

/// RAII bracket of a blocking system call in a participating thread
/// (ScheduleHooks::ExternalWaitBegin/End); no-op in production.
class ScheduleExternalWait {
 public:
  ScheduleExternalWait() : hooks_(GetScheduleHooks()) {
    if (hooks_ != nullptr) hooks_->ExternalWaitBegin();
  }
  ~ScheduleExternalWait() {
    if (hooks_ != nullptr) hooks_->ExternalWaitEnd();
  }

  ScheduleExternalWait(const ScheduleExternalWait&) = delete;
  ScheduleExternalWait& operator=(const ScheduleExternalWait&) = delete;

 private:
  ScheduleHooks* hooks_;
};

/// Blocks until each of the `joined` explorer participants has signed
/// off. Call before std::thread::join() on them; no-op otherwise.
inline void ScheduleQuiesceBeforeJoin(
    const std::vector<std::thread::id>& joined) {
  if (ScheduleHooks* h = GetScheduleHooks()) h->Quiesce(joined);
}

/// An annotated mutex: std::mutex plus the `capability` attribute clang's
/// analysis keys on, plus the ScheduleHooks instrumentation. The `name`
/// shows up in explorer traces and deadlock reports.
class KLINK_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* name = "mutex") : name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() KLINK_ACQUIRE() {
    if (ScheduleHooks* h = GetScheduleHooks()) h->LockAcquire(this);
    mu_.lock();
  }

  void Unlock() KLINK_RELEASE() {
    mu_.unlock();
    if (ScheduleHooks* h = GetScheduleHooks()) h->LockRelease(this);
  }

  const char* name() const { return name_; }

 private:
  friend class CondVar;
  friend struct MutexRawAccess;

  std::mutex mu_;
  const char* name_;
};

/// Raw (hook-free, annotation-free) access for the schedule explorer,
/// which must relock a parked thread's mutex without re-entering its own
/// hooks. Not for general use — everything else goes through
/// Mutex::Lock/Unlock so the analysis and the explorer see it.
struct MutexRawAccess {
  static void RawLock(Mutex& mu) KLINK_NO_THREAD_SAFETY_ANALYSIS {
    mu.mu_.lock();
  }
  static void RawUnlock(Mutex& mu) KLINK_NO_THREAD_SAFETY_ANALYSIS {
    mu.mu_.unlock();
  }
};

/// RAII lock scope over klink::Mutex, annotated as a scoped capability so
/// clang tracks it.
class KLINK_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) KLINK_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() KLINK_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable over klink::Mutex. Wait() is deliberately
/// predicate-free: callers loop `while (!pred) cv.Wait(mu);` inside the
/// annotated lock scope, which keeps the predicate's guarded reads
/// visible to the analysis (a predicate lambda would be analyzed as an
/// unlocked function). Under the schedule explorer, Wait parks the
/// thread until a Notify instead of blocking in the kernel, so the
/// explorer always knows the full runnable set.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and waits for a notification (or a
  /// spurious wakeup — callers must re-check their predicate), then
  /// reacquires `mu`.
  void Wait(Mutex& mu) KLINK_REQUIRES(mu) {
    if (ScheduleHooks* h = GetScheduleHooks()) {
      if (h->CvWait(this, &mu, /*timeout_micros=*/-1)) return;
    }
    std::unique_lock<std::mutex> l(mu.mu_, std::adopt_lock);
    cv_.wait(l);
    l.release();  // caller's MutexLock still owns the mutex
  }

  /// Wait() that also returns after `timeout_micros`; callers re-check
  /// their own clock along with their predicate.
  void WaitFor(Mutex& mu, int64_t timeout_micros) KLINK_REQUIRES(mu) {
    if (ScheduleHooks* h = GetScheduleHooks()) {
      if (h->CvWait(this, &mu, timeout_micros)) return;
    }
    std::unique_lock<std::mutex> l(mu.mu_, std::adopt_lock);
    cv_.wait_for(l, std::chrono::microseconds(timeout_micros));
    l.release();  // caller's MutexLock still owns the mutex
  }

  void NotifyOne() {
    if (ScheduleHooks* h = GetScheduleHooks()) h->CvNotify(this);
    cv_.notify_one();
  }

  void NotifyAll() {
    if (ScheduleHooks* h = GetScheduleHooks()) h->CvNotify(this);
    cv_.notify_all();
  }

 private:
  std::condition_variable cv_;
};

}  // namespace klink

#endif  // KLINK_COMMON_THREAD_ANNOTATIONS_H_
