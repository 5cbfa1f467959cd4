#ifndef KLINK_RUNTIME_QUERY_FABRIC_H_
#define KLINK_RUNTIME_QUERY_FABRIC_H_

#include <map>
#include <memory>
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

/// The engine's query control plane: the mutable set of deployed queries,
/// supporting live attach/detach while traffic flows (DESIGN.md "Query
/// fabric").
///
/// Replaces the wired-up-front Engine::queries_ vector (whose removals
/// left tombstones that every per-cycle loop still visited) with a slot
/// table:
///
///  - Attach allocates the lowest free slot and stamps the query with a
///    generation-stamped QueryId (common/types.h): ids are never reused,
///    so a stale id held across a detach resolves to kDetached/kUnknown
///    instead of aliasing a newer tenant in the same slot.
///  - Detach is graceful: the feed is dropped immediately but the query
///    keeps its scheduling eligibility until its queues drain (in-flight
///    elements — including checkpoint barriers — are processed, not
///    discarded).
///  - Detached queries are retained (not freed): their sinks' recorded
///    statistics stay readable via Find().
///
/// The engine reads every live query once per cycle, in slot order
/// (live()), to build the runtime snapshot and the memory total.
class QueryFabric {
 public:
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

  /// Attaches a query: allocates a slot and stamps the generation id onto
  /// the query. `feed` may be null (manually driven).
  QueryId Attach(std::unique_ptr<Query> query, std::unique_ptr<EventFeed> feed,
                 TimeMicros deploy_time);

  /// Stops ingestion now. A query with queued work drains and retires via
  /// SweepDrained once empty; an empty one retires at once. No-op on
  /// non-live ids.
  void Detach(QueryId id);

  /// Retires draining queries whose queues are empty, appending each
  /// retired query to `retired` (the engine notifies the checkpoint
  /// coordinator and the policy). O(1) when nothing is draining — safe to
  /// call every cycle.
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

  /// KLINK_AUDIT=1 invariant check (also callable from tests): the live
  /// count matches a full scan, slot ids decode back to their slot, and
  /// retired ids never alias a live slot generation. Aborts on the first
  /// violation.
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
