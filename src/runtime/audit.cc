#include "src/runtime/audit.h"

#include <cstdlib>
#include <cstring>

#include "src/common/check.h"
#include "src/window/swm_tracker.h"

namespace klink {
namespace {

/// Slack for comparing re-accumulated doubles: the auditor re-adds the same
/// values in the same order, so equality should be exact; the epsilon only
/// forgives a merge order other than slot order.
constexpr double kBudgetEpsilon = 1e-6;

/// `next` never regresses below `prev`; kNoTime means "not seen yet" and
/// may only transition to a real time, never back.
void CheckTimeMonotone(TimeMicros prev, TimeMicros next, const char* what) {
  if (prev == kNoTime) return;
  KLINK_CHECK(next != kNoTime);
  if (next < prev) {
    std::fprintf(stderr, "KLINK_AUDIT: %s regressed\n", what);
    KLINK_CHECK_GE(next, prev);
  }
}

}  // namespace

bool AuditEnabledFromEnv() {
  // Read once at engine construction, before any worker thread exists.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* v = std::getenv("KLINK_AUDIT");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

void InvariantAuditor::CheckMemoryAccounting(
    const std::vector<const Query*>& active) const {
  for (const Query* q : active) {
    for (int i = 0; i < q->num_operators(); ++i) {
      const Operator& op = q->op(i);
      for (int s = 0; s < op.num_inputs(); ++s) {
        const StreamQueue& in = op.input(s);
        // Incremental ring-buffer counters vs a full walk of the events.
        KLINK_CHECK_EQ(in.bytes(), in.AuditRecomputeBytes());
        KLINK_CHECK_EQ(in.data_count(), in.AuditRecomputeDataCount());
        KLINK_CHECK_GE(in.bytes(), 0);
        KLINK_CHECK_LE(in.data_count(), in.size());
      }
      KLINK_CHECK_GE(op.StateBytes(), 0);
    }
  }
}

void InvariantAuditor::CheckCycleStats(const Executor& executor,
                                       const std::vector<ExecutorTask>& tasks,
                                       const CycleStats& stats) const {
  double busy = 0.0;
  int64_t processed = 0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    const ExecutionContext& ctx = executor.context(static_cast<int>(i));
    KLINK_CHECK_GE(ctx.cycle_busy_micros(), 0.0);
    KLINK_CHECK_GE(ctx.cycle_processed_events(), 0);
    // Strict cycle-grained scheduling: a slot never overruns its quantum.
    KLINK_CHECK_LE(ctx.cycle_busy_micros(),
                   tasks[i].budget_micros + kBudgetEpsilon);
    busy += ctx.cycle_busy_micros();
    processed += ctx.cycle_processed_events();
  }
  // Backends must merge counters in slot order (see runtime/executor.h), so
  // the sums are bit-identical, not just close.
  KLINK_CHECK_EQ(stats.busy_micros, busy);
  KLINK_CHECK_EQ(stats.processed_events, processed);
}

void InvariantAuditor::CheckProgressMonotonicity(
    const std::vector<const Query*>& active) {
  for (const Query* q : active) {
    std::vector<OperatorProgress>& ops = progress_[q->id()];
    ops.resize(static_cast<size_t>(q->num_operators()));
    for (int i = 0; i < q->num_operators(); ++i) {
      const Operator& op = q->op(i);
      OperatorProgress& prev = ops[static_cast<size_t>(i)];
      prev.last_watermark.resize(static_cast<size_t>(op.num_inputs()),
                                 kNoTime);

      // (i) Per-channel watermark monotonicity: the last watermark seen on
      // each input stream and the minimum forwarded downstream only move
      // forward. A regression here means a reordered or duplicated
      // watermark, which silently corrupts every window downstream.
      for (int s = 0; s < op.num_inputs(); ++s) {
        const TimeMicros wm = op.last_watermark(s);
        CheckTimeMonotone(prev.last_watermark[static_cast<size_t>(s)], wm,
                          "per-stream watermark");
        prev.last_watermark[static_cast<size_t>(s)] = wm;
      }
      CheckTimeMonotone(prev.forwarded_min_watermark,
                        op.forwarded_min_watermark_for_audit(),
                        "forwarded min watermark");
      prev.forwarded_min_watermark = op.forwarded_min_watermark_for_audit();
      KLINK_CHECK_GE(op.forwarded_watermarks(), prev.forwarded_watermarks);
      prev.forwarded_watermarks = op.forwarded_watermarks();

      // (ii) Window deadlines advance with fired panes, never backwards.
      CheckTimeMonotone(prev.upcoming_deadline, op.UpcomingDeadline(),
                        "upcoming window deadline");
      if (op.UpcomingDeadline() != kNoTime) {
        prev.upcoming_deadline = op.UpcomingDeadline();
      }

      // (iii) SWM epoch ordering (Sec. 3.1): epochs close in order, each
      // sweep's deadline and ingestion time at or after the previous one.
      const SwmTracker* tracker = op.swm_tracker();
      if (tracker == nullptr) continue;
      const size_t streams = static_cast<size_t>(tracker->num_streams());
      prev.swm_epoch.resize(streams, 0);
      prev.swm_swept_deadline.resize(streams, kNoTime);
      prev.swm_sweep_ingest.resize(streams, kNoTime);
      for (int s = 0; s < tracker->num_streams(); ++s) {
        const SwmTracker::StreamStats& st = tracker->stream(s);
        KLINK_CHECK_GE(st.epoch, prev.swm_epoch[static_cast<size_t>(s)]);
        prev.swm_epoch[static_cast<size_t>(s)] = st.epoch;
        CheckTimeMonotone(prev.swm_swept_deadline[static_cast<size_t>(s)],
                          st.last_swept_deadline, "swept SWM deadline");
        if (st.last_swept_deadline != kNoTime) {
          prev.swm_swept_deadline[static_cast<size_t>(s)] =
              st.last_swept_deadline;
        }
        CheckTimeMonotone(prev.swm_sweep_ingest[static_cast<size_t>(s)],
                          st.last_sweep_ingest, "SWM sweep ingestion time");
        if (st.last_sweep_ingest != kNoTime) {
          prev.swm_sweep_ingest[static_cast<size_t>(s)] = st.last_sweep_ingest;
        }
      }
    }
  }
}

}  // namespace klink
