#ifndef KLINK_RUNTIME_AUDIT_H_
#define KLINK_RUNTIME_AUDIT_H_

#include <unordered_map>
#include <vector>

#include "src/common/types.h"
#include "src/query/query.h"
#include "src/runtime/executor.h"

namespace klink {

/// True when KLINK_AUDIT=1 (or any non-empty, non-"0" value) is set in the
/// environment. Read at each call so tests can flip it before constructing
/// an engine; callers cache the answer per constructed object.
bool AuditEnabledFromEnv();

/// Deterministic invariant auditor (enabled with KLINK_AUDIT=1).
///
/// Klink's scheduling quality rests on bookkeeping that is maintained
/// *incrementally* for speed — queue byte and data counters updated per
/// batch, operator state bytes updated per delta, watermark and SWM epoch
/// state advanced in place (PAPER.md Sec. 3, DESIGN.md "Hot path"). The
/// auditor cross-checks that incremental state against full
/// recomputation at engine-cycle boundaries and aborts (KLINK_CHECK) on the
/// first divergence, so drift is caught at the cycle it appears instead of
/// surfacing cycles later as a mis-scheduling artifact.
///
/// Checked invariants:
///  - StreamQueue byte/data-count counters equal a full walk of the stored
///    events (catches drift in the batched ring-buffer transfers), and
///    operator state bytes are non-negative. At each drain end,
///    ExecutionContext::RunRange also checks the drained queues' byte
///    counter and cached front ingest time against the stored events.
///  - Per-channel watermark monotonicity: an operator's last-seen watermark
///    per input stream and its forwarded minimum watermark never regress.
///  - SWM epoch ordering: per input stream of each windowed operator, epoch
///    counts, swept deadlines, and sweep ingestion times are non-decreasing,
///    and upcoming window deadlines never move backwards.
///  - Executor cycle stats: the merged CycleStats equal the slot-order sum
///    of the per-context counters, and no slot overran its budget.
///
/// The selection invariants (at most one unit per core, none twice) are
/// not audited here: Node::Schedule checks them every cycle, audited or not.
///
/// Cost: the recomputation walks every queued event, so an audited cycle is
/// O(queued events) on top of normal work — debug/CI tooling, not a
/// production mode (see DESIGN.md "Correctness tooling").
class InvariantAuditor {
 public:
  InvariantAuditor() = default;

  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;

  /// Cross-checks every queue counter of `active` queries against full
  /// recomputation, and their operator state bytes for sign.
  void CheckMemoryAccounting(const std::vector<const Query*>& active) const;

  /// Validates the merged cycle stats against the per-slot contexts.
  void CheckCycleStats(const Executor& executor,
                       const std::vector<ExecutorTask>& tasks,
                       const CycleStats& stats) const;

  /// Asserts watermark monotonicity and SWM epoch ordering for every
  /// operator of every active query, against the progress recorded on the
  /// previous call. Mutates the stored progress.
  void CheckProgressMonotonicity(const std::vector<const Query*>& active);

 private:
  /// Last observed progress of one operator (indexed per input stream).
  struct OperatorProgress {
    std::vector<TimeMicros> last_watermark;
    TimeMicros forwarded_min_watermark = kNoTime;
    int64_t forwarded_watermarks = 0;
    TimeMicros upcoming_deadline = kNoTime;
    std::vector<int64_t> swm_epoch;
    std::vector<TimeMicros> swm_swept_deadline;
    std::vector<TimeMicros> swm_sweep_ingest;
  };

  std::unordered_map<QueryId, std::vector<OperatorProgress>> progress_;
};

}  // namespace klink

#endif  // KLINK_RUNTIME_AUDIT_H_
