#include "tests/support/schedule_explorer.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <set>

#include "src/common/check.h"

namespace klink {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Fnv1aString(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

const char* RunName(int run) {
  static const char* kNames[] = {"running",   "ready",     "blocked-mutex",
                                 "parked-cv", "quiescing", "external",
                                 "ended"};
  return kNames[run];
}

int64_t SteadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ScheduleExplorer::ScheduleExplorer(const ScheduleExplorerConfig& config)
    : config_(config) {
  KLINK_CHECK_GE(config_.priority_change_points, 0);
  KLINK_CHECK_GT(config_.max_steps_hint, 0u);
  // Draw the distinct priority-demotion steps for this seed.
  uint64_t rng = config_.seed * 0x9e3779b97f4a7c15ull + 1;
  std::set<uint64_t> steps;
  const uint64_t want = std::min<uint64_t>(
      static_cast<uint64_t>(config_.priority_change_points),
      config_.max_steps_hint);
  while (steps.size() < want) {
    steps.insert(1 + SplitMix64(rng) % config_.max_steps_hint);
  }
  demote_steps_.assign(steps.rbegin(), steps.rend());  // descending

  // The constructing thread is participant "main" and starts with the
  // token; install the hooks only once it is registered so a hook call
  // can never observe an empty registry.
  auto main_thread = std::make_unique<Thread>();
  main_thread->name = "main";
  main_thread->priority = BasePriority(main_thread->name);
  main_thread->run = Run::kRunning;
  main_thread->os_id = std::this_thread::get_id();
  main_thread->index = 0;
  current_ = main_thread.get();
  by_os_id_[main_thread->os_id] = main_thread.get();
  threads_.push_back(std::move(main_thread));

  KLINK_CHECK(GetScheduleHooks() == nullptr);  // one explorer at a time
  SetScheduleHooks(this);
}

ScheduleExplorer::~ScheduleExplorer() {
  SetScheduleHooks(nullptr);
  std::unique_lock<std::mutex> lock(m_);
  Thread* self = SelfLocked();
  KLINK_CHECK(self != nullptr && self == current_);  // destroy on "main"
  for (const auto& t : threads_) {
    // Every worker must have ended (the executor destructor quiesces
    // before joining); a straggler here would dangle into freed state.
    KLINK_CHECK(t.get() == self || t->run == Run::kEnded);
  }
  self->run = Run::kEnded;
  current_ = nullptr;
}

int64_t ScheduleExplorer::BasePriority(const std::string& name) const {
  // Keyed by the thread's *name*, not registration order: the same seed
  // gives the same priorities no matter how OS timing orders thread
  // startup. Positive, so demoted priorities (negative) rank below all.
  uint64_t rng = config_.seed ^ Fnv1aString(name);
  return static_cast<int64_t>(SplitMix64(rng) >> 1) | 1;
}

ScheduleExplorer::Thread* ScheduleExplorer::SelfLocked() {
  const auto it = by_os_id_.find(std::this_thread::get_id());
  return it == by_os_id_.end() ? nullptr : it->second;
}

bool ScheduleExplorer::RunnableLocked(const Thread& t) const {
  const auto wanted_free = [this, &t] {
    const auto it = owner_.find(t.wants);
    return it == owner_.end() || it->second == nullptr;
  };
  switch (t.run) {
    case Run::kReady:
      return true;
    case Run::kBlockedMutex:
      return wanted_free();
    case Run::kParkedCv:
      // A timed wait whose timeout passed competes like a notified one.
      return t.deadline >= 0 && SteadyMicros() >= t.deadline &&
             wanted_free();
    case Run::kQuiescing:
      for (const Thread* u : t.joins) {
        if (u->run != Run::kEnded) return false;
      }
      return true;
    case Run::kRunning:
    case Run::kExternal:
    case Run::kEnded:
      return false;
  }
  return false;
}

void ScheduleExplorer::StepLocked(Thread* self, const char* kind,
                                  const char* detail) {
  ++steps_;
  bool demoted = false;
  if (!demote_steps_.empty() && demote_steps_.back() == steps_) {
    demote_steps_.pop_back();
    self->priority = next_demoted_priority_--;
    demoted = true;
  }
  char line[160];
  std::snprintf(line, sizeof(line), "#%" PRIu64 " %s %s(%s)%s", steps_,
                self->name.c_str(), kind, detail,
                demoted ? " [demoted]" : "");
  const size_t cap = config_.record_trace ? config_.max_trace : 64;
  if (trace_.size() >= cap) {
    trace_.erase(trace_.begin(),
                 trace_.begin() + static_cast<ptrdiff_t>(cap / 2 + 1));
  }
  trace_.emplace_back(line);
}

void ScheduleExplorer::PickNextLocked() {
  constexpr int kMaxPassedOver = 32;
  Thread* best = nullptr;
  Thread* starved = nullptr;
  for (const auto& t : threads_) {
    if (!RunnableLocked(*t)) continue;
    if (best == nullptr || t->priority > best->priority ||
        (t->priority == best->priority &&
         (t->name < best->name ||
          (t->name == best->name && t->index < best->index)))) {
      best = t.get();
    }
    if (t->passed_over >= kMaxPassedOver &&
        (starved == nullptr || t->passed_over > starved->passed_over)) {
      starved = t.get();
    }
  }
  if (starved != nullptr) best = starved;
  for (const auto& t : threads_) {
    if (t.get() != best && RunnableLocked(*t)) ++t->passed_over;
  }
  if (best != nullptr) best->passed_over = 0;
  if (best == nullptr) {
    // A thread in a system call picks again when it returns.
    for (const auto& t : threads_) {
      if (t->run == Run::kExternal) {
        current_ = nullptr;
        return;
      }
    }
    // Nothing else can ever wake a timed waiter: its timeout fires now.
    for (const auto& t : threads_) {
      if (t->run == Run::kParkedCv && t->deadline >= 0 &&
          (best == nullptr || t->deadline < best->deadline)) {
        best = t.get();
      }
    }
    if (best != nullptr) best->deadline = 0;  // fired: runnable from now on
    if (best != nullptr && !RunnableLocked(*best)) best = nullptr;
  }
  if (best != nullptr) {
    current_ = best;
    best->cv.notify_one();
    return;
  }
  for (const auto& t : threads_) {
    if (t->run != Run::kEnded) DeadlockAbortLocked();
  }
  current_ = nullptr;  // everything ended (explorer teardown)
}

void ScheduleExplorer::WaitForTurnLocked(std::unique_lock<std::mutex>& lock,
                                         Thread* self) {
  while (current_ != self) self->cv.wait(lock);
}

void ScheduleExplorer::RescheduleLocked(std::unique_lock<std::mutex>& lock,
                                        Thread* self, const char* kind,
                                        const char* detail) {
  StepLocked(self, kind, detail);
  self->run = Run::kReady;
  PickNextLocked();
  WaitForTurnLocked(lock, self);
  self->run = Run::kRunning;
}

void ScheduleExplorer::DeadlockAbortLocked() {
  std::fprintf(stderr,
               "klink: schedule explorer DEADLOCK (seed %" PRIu64
               ", step %" PRIu64 ") — no runnable thread:\n",
               config_.seed, steps_);
  for (const auto& t : threads_) {
    std::fprintf(stderr, "  thread %-12s %-13s prio=%lld%s%s\n",
                 t->name.c_str(), RunName(static_cast<int>(t->run)),
                 static_cast<long long>(t->priority),
                 t->wants != nullptr ? " wants=" : "",
                 t->wants != nullptr ? t->wants->name() : "");
  }
  for (const auto& [mu, holder] : owner_) {
    if (holder != nullptr) {
      std::fprintf(stderr, "  mutex %-14s held by %s\n", mu->name(),
                   holder->name.c_str());
    }
  }
  const size_t from = trace_.size() > 60 ? trace_.size() - 60 : 0;
  for (size_t i = from; i < trace_.size(); ++i) {
    std::fprintf(stderr, "  %s\n", trace_[i].c_str());
  }
  KLINK_CHECK(false && "schedule explorer deadlock");
  std::abort();  // unreachable; KLINK_CHECK aborts
}

void ScheduleExplorer::AwaitParticipants(int live) {
  std::unique_lock<std::mutex> lock(m_);
  KLINK_CHECK(SelfLocked() == current_);  // only the token holder may wait
  // Test-only watchdog for a worker that never registers; virtual time
  // cannot advance while we block here, so real time is the only clock
  // that can bound the wait.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  for (;;) {
    int count = 0;
    for (const auto& t : threads_) count += t->run != Run::kEnded;
    if (count >= live) return;
    KLINK_CHECK(participants_cv_.wait_until(lock, deadline) !=
                std::cv_status::timeout);
  }
}

uint64_t ScheduleExplorer::steps() const {
  std::unique_lock<std::mutex> lock(m_);
  return steps_;
}

std::vector<std::string> ScheduleExplorer::TakeTrace() {
  std::unique_lock<std::mutex> lock(m_);
  std::vector<std::string> out;
  out.swap(trace_);
  return out;
}

void ScheduleExplorer::ThreadBegin(const char* name) {
  std::unique_lock<std::mutex> lock(m_);
  auto t = std::make_unique<Thread>();
  t->name = name;
  t->priority = BasePriority(t->name);
  t->run = Run::kReady;
  t->os_id = std::this_thread::get_id();
  t->index = static_cast<int>(threads_.size());
  Thread* self = t.get();
  by_os_id_[t->os_id] = self;  // OS ids of ended threads were erased
  threads_.push_back(std::move(t));
  participants_cv_.notify_all();
  if (current_ == nullptr) PickNextLocked();
  WaitForTurnLocked(lock, self);
  self->run = Run::kRunning;
}

void ScheduleExplorer::ThreadEnd() {
  std::unique_lock<std::mutex> lock(m_);
  Thread* self = SelfLocked();
  if (self == nullptr) return;
  StepLocked(self, "end", "");
  self->run = Run::kEnded;
  by_os_id_.erase(self->os_id);  // the OS may recycle the id
  if (current_ == self) PickNextLocked();
}

void ScheduleExplorer::Yield(const char* tag) {
  std::unique_lock<std::mutex> lock(m_);
  Thread* self = SelfLocked();
  if (self == nullptr) return;
  RescheduleLocked(lock, self, "yield", tag);
}

void ScheduleExplorer::LockAcquire(Mutex* mu) {
  std::unique_lock<std::mutex> lock(m_);
  Thread* self = SelfLocked();
  if (self == nullptr) return;
  StepLocked(self, "acquire", mu->name());
  self->run = Run::kBlockedMutex;
  self->wants = mu;
  PickNextLocked();
  WaitForTurnLocked(lock, self);
  // Granted only while `mu` is unowned (RunnableLocked), so the caller's
  // real lock below cannot contend against another participant.
  self->wants = nullptr;
  self->run = Run::kRunning;
  owner_[mu] = self;
}

void ScheduleExplorer::LockRelease(Mutex* mu) {
  std::unique_lock<std::mutex> lock(m_);
  Thread* self = SelfLocked();
  if (self == nullptr) return;
  const auto it = owner_.find(mu);
  if (it != owner_.end() && it->second == self) owner_.erase(it);
  RescheduleLocked(lock, self, "release", mu->name());
}

bool ScheduleExplorer::CvWait(void* cv, Mutex* mu, int64_t timeout_micros) {
  std::unique_lock<std::mutex> lock(m_);
  Thread* self = SelfLocked();
  if (self == nullptr) return false;  // non-participant: real wait
  StepLocked(self, timeout_micros >= 0 ? "cv-timed-wait" : "cv-wait",
             mu->name());
  self->deadline = timeout_micros >= 0 ? SteadyMicros() + timeout_micros : -1;
  // Release the real mutex so the participant we switch to can take it;
  // park until a CvNotify makes us runnable again (as a blocked acquirer
  // of `mu` — the grant implies the mutex is free to reacquire).
  const auto it = owner_.find(mu);
  if (it != owner_.end() && it->second == self) owner_.erase(it);
  MutexRawAccess::RawUnlock(*mu);
  self->run = Run::kParkedCv;
  self->parked_on = cv;
  self->wants = mu;
  PickNextLocked();
  WaitForTurnLocked(lock, self);
  self->parked_on = nullptr;
  self->deadline = -1;
  self->wants = nullptr;
  self->run = Run::kRunning;
  owner_[mu] = self;
  // Release m_ before re-taking `mu`, as LockAcquire does: holding m_ here
  // would order m_ before `mu`, the reverse of every caller's order.
  lock.unlock();
  MutexRawAccess::RawLock(*mu);  // uncontended: participants are parked
  return true;
}

void ScheduleExplorer::CvNotify(void* cv) {
  std::unique_lock<std::mutex> lock(m_);
  // Wake every waiter (for notify_one too): spurious wakeups are allowed
  // by the Wait contract, and waking all explores strictly more
  // schedules. Woken threads become blocked acquirers of their mutex.
  for (const auto& t : threads_) {
    if (t->run == Run::kParkedCv && t->parked_on == cv) {
      t->run = Run::kBlockedMutex;
      t->parked_on = nullptr;
      t->deadline = -1;
    }
  }
  Thread* self = SelfLocked();
  if (self != nullptr) {
    RescheduleLocked(lock, self, "notify", "");
  } else if (current_ == nullptr) {
    PickNextLocked();
  }
}

void ScheduleExplorer::ExternalWaitBegin() {
  std::unique_lock<std::mutex> lock(m_);
  Thread* self = SelfLocked();
  if (self == nullptr) return;
  StepLocked(self, "external", "");
  self->run = Run::kExternal;
  PickNextLocked();
}

void ScheduleExplorer::ExternalWaitEnd() {
  std::unique_lock<std::mutex> lock(m_);
  Thread* self = SelfLocked();
  if (self == nullptr) return;
  self->run = Run::kReady;
  if (current_ == nullptr) PickNextLocked();
  WaitForTurnLocked(lock, self);
  self->run = Run::kRunning;
}

void ScheduleExplorer::Quiesce(const std::vector<std::thread::id>& joined) {
  std::unique_lock<std::mutex> lock(m_);
  Thread* self = SelfLocked();
  if (self == nullptr) return;
  StepLocked(self, "quiesce", "");
  // Threads that already ended left by_os_id_; non-participants never
  // entered it. Both are joinable without turns.
  for (const std::thread::id id : joined) {
    const auto it = by_os_id_.find(id);
    if (it != by_os_id_.end()) self->joins.push_back(it->second);
  }
  self->run = Run::kQuiescing;
  PickNextLocked();
  WaitForTurnLocked(lock, self);
  self->joins.clear();
  self->run = Run::kRunning;
}

}  // namespace klink
