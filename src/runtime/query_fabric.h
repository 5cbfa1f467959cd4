#ifndef KLINK_RUNTIME_QUERY_FABRIC_H_
#define KLINK_RUNTIME_QUERY_FABRIC_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"
#include "src/query/query.h"
#include "src/runtime/event_feed.h"

namespace klink {

/// Lifecycle of one attached query.
enum class QueryState {
  kActive,    ///< ingesting (when it has a feed) and schedulable
  kDraining,  ///< detach requested: feed dropped, runs until queues empty
  kDetached,  ///< retired: stats readable, no longer scheduled
  kUnknown,   ///< id never attached to this fabric
};

/// A named ingest endpoint: events routed to `name` land on source
/// operator `source_index` of query `query`.
struct EndpointBinding {
  QueryId query = -1;
  int source_index = 0;
};

/// The engine's query control plane: the mutable set of deployed queries,
/// supporting live attach/detach/rewire while traffic flows (DESIGN.md
/// "Query fabric").
///
/// Replaces the wired-up-front Engine::queries_ vector (whose removals
/// left tombstones that every per-cycle loop still visited) with a slot
/// table:
///
///  - Attach allocates the lowest free slot and stamps the query with a
///    generation-stamped QueryId (common/types.h): ids are never reused,
///    so a stale id held across a detach resolves to kDetached/kUnknown
///    instead of aliasing a newer tenant in the same slot.
///  - Detach is graceful by default: the feed is dropped immediately but
///    the query keeps its scheduling eligibility until its queues drain
///    (in-flight elements — including checkpoint barriers — are processed,
///    not discarded). kImmediate discards queued elements, matching the
///    old RemoveQuery semantics.
///  - Detached queries are retained (not freed): their sinks' recorded
///    statistics stay readable via Find(), exactly as RemoveQuery
///    guaranteed before.
///  - Named endpoints route external streams to (query, source) pairs and
///    can be rewired live; bindings of a retiring query drop atomically
///    with it.
///
/// The fabric is also the engine's change journal: every mutation that can
/// alter a query's runtime snapshot marks the query dirty, and the engine
/// consumes the dirty set once per cycle to refresh only the changed
/// QueryInfo entries — the seam that makes snapshot maintenance and
/// scheduling O(changed) instead of O(queries) (see sched/policy.h).
class QueryFabric {
 public:
  enum class DetachMode {
    kDrain,      ///< stop ingest, process remaining queued work, then retire
    kImmediate,  ///< stop ingest and discard queued elements now
  };

  /// One live slot's view handed to engine loops.
  struct LiveQuery {
    QueryId id = -1;
    Query* query = nullptr;
    EventFeed* feed = nullptr;  // null while draining or for manual tests
    TimeMicros deploy_time = 0;
  };

  QueryFabric();

  QueryFabric(const QueryFabric&) = delete;
  QueryFabric& operator=(const QueryFabric&) = delete;
  ~QueryFabric();

  /// Attaches a query: allocates a slot, stamps the generation id onto the
  /// query, and marks it dirty. `feed` may be null (manually driven).
  QueryId Attach(std::unique_ptr<Query> query, std::unique_ptr<EventFeed> feed,
                 TimeMicros deploy_time);

  /// Begins (kDrain) or completes (kImmediate) a detach. Draining queries
  /// retire via SweepDrained once empty. No-op on non-live ids.
  void Detach(QueryId id, DetachMode mode);

  /// Retires draining queries whose queues are empty, appending each
  /// retired query to `retired` (the engine notifies the checkpoint
  /// coordinator and the snapshot journal). O(1) when nothing is
  /// draining — safe to call every cycle.
  void SweepDrained(std::vector<QueryId>* retired);

  /// ---- lookup ---------------------------------------------------------
  QueryState state(QueryId id) const;
  /// True while the query is schedulable (active or draining).
  bool IsLive(QueryId id) const;
  /// Live or retired query, nullptr for unknown ids.
  Query* Find(QueryId id);
  const Query* Find(QueryId id) const;

  int live_count() const { return live_count_; }
  int draining_count() const { return draining_; }
  /// Queries ever attached (diagnostics; includes retired ones).
  int64_t attached_total() const { return attached_total_; }

  /// Retired queries in ascending id order (deterministic iteration for
  /// aggregate statistics that fold over all queries ever deployed).
  const std::map<QueryId, std::unique_ptr<Query>>& retired() const {
    return retired_;
  }

  /// Live queries in slot order (== attach order for a fixed set). The
  /// span is rebuilt lazily after churn; steady-state calls are O(1).
  const std::vector<LiveQuery>& live() const;

  /// Live queries with a non-null feed, in slot order (the engine's ingest
  /// loop walks only these — idle tenants cost nothing per cycle).
  const std::vector<LiveQuery>& fed() const;

  /// ---- named endpoints / stream routing -------------------------------
  /// Binds (or rewires) `name` to source `source_index` of `id`. The query
  /// must be live and the source index in range.
  void BindEndpoint(const std::string& name, QueryId id, int source_index);
  /// Drops one binding (no-op when absent).
  void UnbindEndpoint(const std::string& name);
  /// Resolves a name, or nullptr when unbound. A binding whose query has
  /// retired resolves to nullptr (and is lazily dropped).
  const EndpointBinding* ResolveEndpoint(const std::string& name) const;
  int num_endpoints() const { return static_cast<int>(endpoints_.size()); }

  /// ---- change journal -------------------------------------------------
  /// Marks one query's runtime state changed (ingest, execution, barrier,
  /// state restore). Live ids only; others are ignored.
  void MarkDirty(QueryId id);
  /// Marks every live query dirty (barrier injection, restore, MM mode).
  void MarkAllDirty();
  /// Drains the journal accumulated since the previous call: ids whose
  /// QueryInfo must be re-collected, and ids retired since then. Ids are
  /// in deterministic (slot, generation) order.
  void TakeJournal(std::vector<QueryId>* touched,
                   std::vector<QueryId>* detached);

  /// KLINK_AUDIT=1 invariant check (also callable from tests): endpoint
  /// targets are live, dirty marks refer to live queries, the live count
  /// matches a full scan, and retired ids never alias a live slot
  /// generation. Aborts on the first violation.
  void AuditConsistency() const;

 private:
  /// Lets corruption-injection death tests plant inconsistencies to prove
  /// AuditConsistency detects them. Test-only.
  friend class QueryFabricTestPeer;

  struct Slot {
    std::unique_ptr<Query> query;
    std::unique_ptr<EventFeed> feed;
    TimeMicros deploy_time = 0;
    int32_t generation = 0;  // bumped when the slot is freed
    QueryState state = QueryState::kUnknown;
    bool dirty = false;
  };

  Slot* LiveSlot(QueryId id);
  const Slot* LiveSlot(QueryId id) const;
  void Retire(int32_t slot_index);
  void InvalidateViews() { views_valid_ = false; }
  void RebuildViews() const;

  std::vector<Slot> slots_;
  /// Free slot indices, ascending (lowest slot reused first, so ids stay
  /// small and deterministic).
  std::vector<int32_t> free_slots_;
  /// Retired queries, retained for stats (id -> query). Ordered so
  /// aggregate folds over them are deterministic.
  std::map<QueryId, std::unique_ptr<Query>> retired_;

  int live_count_ = 0;
  int draining_ = 0;
  int64_t attached_total_ = 0;

  std::unordered_map<std::string, EndpointBinding> endpoints_;

  std::vector<QueryId> journal_touched_;
  std::vector<QueryId> journal_detached_;

  /// Cached slot-order views, invalidated by attach/retire and rebuilt
  /// lazily on access (mutable: a logically-const cache).
  mutable std::vector<LiveQuery> live_view_;
  mutable std::vector<LiveQuery> fed_view_;
  mutable bool views_valid_ = false;

  /// Sampled from KLINK_AUDIT once at construction.
  const bool audit_;
};

}  // namespace klink

#endif  // KLINK_RUNTIME_QUERY_FABRIC_H_
